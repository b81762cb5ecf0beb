package device

import (
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
	if got := d.Float32(v.Addr(7)); got != 3.25 {
		t.Errorf("Float32(addr) = %v", got)
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
