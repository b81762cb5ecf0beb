package device

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/compress"
)

func TestMallocAlignment(t *testing.T) {
	d := New()
	r, err := d.Malloc("a", 100, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Addr%compress.BlockSize != 0 {
		t.Errorf("region not block aligned: %#x", r.Addr)
	}
	if r.Size != compress.BlockSize {
		t.Errorf("size = %d, want rounded to %d", r.Size, compress.BlockSize)
	}
	r2, err := d.Malloc("b", 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Addr < r.End() {
		t.Errorf("regions overlap: %#x < %#x", r2.Addr, r.End())
	}
	if !r2.SafeToApprox {
		t.Errorf("approx annotation lost: %+v", r2)
	}
}

func TestMallocRejectsBadSize(t *testing.T) {
	d := New()
	if _, err := d.Malloc("zero", 0, false); err == nil {
		t.Error("zero-size allocation accepted")
	}
	if _, err := d.Malloc("neg", -8, false); err == nil {
		t.Error("negative allocation accepted")
	}
}

func TestSafeToApproxClassification(t *testing.T) {
	d := New()
	exact, _ := d.Malloc("exact", 1024, false)
	approx, _ := d.Malloc("approx", 1024, true)
	if d.SafeToApprox(exact.Addr) {
		t.Error("exact region classified approximable")
	}
	if !d.SafeToApprox(approx.Addr + 512) {
		t.Error("approx region not classified approximable")
	}
	if d.SafeToApprox(approx.End() + 4096) {
		t.Error("unallocated address classified approximable")
	}
}

func TestFloatAccessors(t *testing.T) {
	d := New()
	r, _ := d.Malloc("f", 1024, false)
	v := d.F32View(r)
	if v.Len() != 256 {
		t.Fatalf("len = %d", v.Len())
	}
	v.Set(7, 3.25)
	if got := v.At(7); got != 3.25 {
		t.Errorf("At(7) = %v", got)
	}
}

// TestF32ViewBounds pins that a view's accessors check the view, not the
// device: with regions a and b adjacent, index a.Len() of a's view is b's
// first element, and reading or writing it must panic rather than alias b.
// The panic is a viewError naming the index and the view, not an
// accessError: the word it would touch is allocated memory.
func TestF32ViewBounds(t *testing.T) {
	d := New()
	ra, _ := d.Malloc("a", 128, false)
	rb, _ := d.Malloc("b", 128, false)
	a, b := d.F32View(ra), d.F32View(rb)
	if a.Addr(a.Len()) != b.Addr(0) {
		t.Fatalf("regions not adjacent: a ends at %#x, b starts at %#x", a.Addr(a.Len()), b.Addr(0))
	}
	b.Set(0, 9)
	for _, i := range []int{-1, a.Len(), a.Len() + 1} {
		want := fmt.Sprintf("device: index %d outside view [0x80, 0x100)", i)
		mustPanic := func(op string, access func()) {
			t.Helper()
			defer func() {
				t.Helper()
				err, ok := recover().(error)
				var ve viewError
				if !ok || !errors.As(err, &ve) || err.Error() != want {
					t.Errorf("%s(%d): panic %v, want %q", op, i, err, want)
				}
			}()
			access()
		}
		mustPanic("At", func() { a.At(i) })
		mustPanic("Set", func() { a.Set(i, 1) })
	}
	if got := b.At(0); got != 9 {
		t.Errorf("b[0] = %v after out-of-view writes through a, want 9", got)
	}
	a.Set(a.Len()-1, 4)
	if got := a.At(a.Len() - 1); got != 4 {
		t.Errorf("a[last] = %v, want 4", got)
	}
}

func TestCopyAndReadFloats(t *testing.T) {
	d := New()
	r, _ := d.Malloc("x", 64*4, false)
	in := make([]float32, 64)
	for i := range in {
		in[i] = float32(i) * 0.5
	}
	if err := d.CopyFloats32(r, in); err != nil {
		t.Fatal(err)
	}
	out, err := d.ReadFloats32(r, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("out[%d] = %v, want %v", i, out[i], in[i])
		}
	}
	if err := d.CopyFloats32(r, make([]float32, 65)); err == nil {
		t.Error("oversized copy accepted")
	}
}

func TestBlockAliasing(t *testing.T) {
	d := New()
	r, _ := d.Malloc("blk", 256, false)
	b, err := d.Block(r.Addr + 130) // inside second block
	if err != nil {
		t.Fatal(err)
	}
	b[0] = 0xAB
	got, _ := d.Bytes(r.Addr+compress.BlockSize, 1)
	if got[0] != 0xAB {
		t.Error("Block does not alias device memory")
	}
}

func TestOutOfRangeAccess(t *testing.T) {
	d := New()
	r, _ := d.Malloc("only", 128, false)
	if _, err := d.Bytes(r.End(), 1); err == nil {
		t.Error("read past end accepted")
	}
	if _, err := d.Bytes(0, 1); err == nil {
		t.Error("read at null page accepted")
	}
}

// TestWordAccessBounds pins the device's bounds check (index) at word size:
// every 4-byte access that leaves allocated memory, on either side or by
// straddling the end, fails with an accessError carrying the device's
// access message, and the first and last words in range are accessible.
func TestWordAccessBounds(t *testing.T) {
	d := New()
	r, err := d.Malloc("m", 256, false) // [0x80, 0x180)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		d    *Device
		addr uint64
		want string
	}{
		{"null address", d, 0, "device: access [0x0, 0x4) outside allocated memory"},
		{"word just below base", d, 0x7c, "device: access [0x7c, 0x80) outside allocated memory"},
		{"straddles base", d, 0x7f, "device: access [0x7f, 0x83) outside allocated memory"},
		{"at the end", d, 0x180, "device: access [0x180, 0x184) outside allocated memory"},
		{"far past the end", d, 1 << 40, "device: access [0x10000000000, 0x10000000004) outside allocated memory"},
		{"straddles end by 1", d, 0x17d, "device: access [0x17d, 0x181) outside allocated memory"},
		{"straddles end by 2", d, 0x17e, "device: access [0x17e, 0x182) outside allocated memory"},
		{"straddles end by 3", d, 0x17f, "device: access [0x17f, 0x183) outside allocated memory"},
		{"empty device", New(), 0x80, "device: access [0x80, 0x84) outside allocated memory"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.d.Bytes(c.addr, 4)
			var ae accessError
			if !errors.As(err, &ae) {
				t.Fatalf("got %v, want an accessError", err)
			}
			if err.Error() != c.want {
				t.Errorf("message %q, want %q", err.Error(), c.want)
			}
		})
	}
	for _, addr := range []uint64{r.Addr, r.Addr + 1, r.End() - 5, r.End() - 4} {
		if _, err := d.Bytes(addr, 4); err != nil {
			t.Errorf("word at %#x: %v", addr, err)
		}
	}
}

// BenchmarkDeviceF32 measures the kernels' element access, an At and a Set
// per element over a 64 KiB region, in ns per element.
func BenchmarkDeviceF32(b *testing.B) {
	d := New()
	r, err := d.Malloc("bench", 64<<10, false)
	if err != nil {
		b.Fatal(err)
	}
	v := d.F32View(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < v.Len(); j++ {
			v.Set(j, v.At(j)+1)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*v.Len()), "ns/element")
}

func TestRegionOf(t *testing.T) {
	d := New()
	a, _ := d.Malloc("a", 128, false)
	b, _ := d.Malloc("b", 128, true)
	if r, ok := d.RegionOf(a.Addr); !ok || r.Name != "a" {
		t.Errorf("RegionOf(a) = %+v, %v", r, ok)
	}
	if r, ok := d.RegionOf(b.Addr + 64); !ok || r.Name != "b" {
		t.Errorf("RegionOf(b+64) = %+v, %v", r, ok)
	}
	if _, ok := d.RegionOf(b.End()); ok {
		t.Error("RegionOf past end returned a region")
	}
}

func TestBlockAddrs(t *testing.T) {
	d := New()
	r, _ := d.Malloc("r", 3*compress.BlockSize, false)
	var n int
	r.BlockAddrs(func(addr uint64) {
		if addr%compress.BlockSize != 0 {
			t.Errorf("unaligned block addr %#x", addr)
		}
		n++
	})
	if n != 3 {
		t.Errorf("visited %d blocks, want 3", n)
	}
	if r.Blocks() != 3 {
		t.Errorf("Blocks() = %d", r.Blocks())
	}
}

func TestMallocNeverOverlaps(t *testing.T) {
	d := New()
	type span struct{ lo, hi uint64 }
	var spans []span
	seed := uint64(9)
	next := func() uint64 { seed ^= seed << 13; seed ^= seed >> 7; seed ^= seed << 17; return seed }
	for i := 0; i < 200; i++ {
		size := int(next()%8192) + 1
		r, err := d.Malloc("r", size, next()%2 == 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range spans {
			if r.Addr < s.hi && s.lo < r.End() {
				t.Fatalf("region [%#x,%#x) overlaps [%#x,%#x)", r.Addr, r.End(), s.lo, s.hi)
			}
		}
		spans = append(spans, span{r.Addr, r.End()})
	}
}
