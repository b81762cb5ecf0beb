package slc

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/compress"
	"repro/internal/compress/e2mc"
)

// testTable trains an E2MC table on float-like blocks so that typical blocks
// land a few bits above a burst boundary — the regime SLC targets.
func testTable(t testing.TB) *e2mc.Table {
	t.Helper()
	tr := e2mc.NewTrainer()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 600; i++ {
		tr.Sample(floatBlock(rng))
	}
	tab, err := tr.Build(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func floatBlock(rng *rand.Rand) []byte {
	b := make([]byte, compress.BlockSize)
	base := rng.Float32() * 8
	for i := 0; i < 32; i++ {
		v := base + float32(rng.Intn(64))/64
		binary.LittleEndian.PutUint32(b[i*4:], math.Float32bits(v))
	}
	return b
}

func newCodec(t testing.TB, tab *e2mc.Table, v Variant) *Codec {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Variant = v
	c, err := New(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	tab := testTable(t)
	if _, err := New(tab, Config{MAG: 24, ThresholdBits: 128, Variant: OPT}); err == nil {
		t.Error("invalid MAG accepted")
	}
	if _, err := New(tab, Config{MAG: compress.MAG32, ThresholdBits: -1, Variant: OPT}); err == nil {
		t.Error("negative threshold accepted")
	}
	if _, err := New(tab, Config{MAG: compress.MAG32, ThresholdBits: 128, Variant: Variant(9)}); err == nil {
		t.Error("unknown variant accepted")
	}
}

func TestDecisionBudgetArithmetic(t *testing.T) {
	tab := testTable(t)
	c := newCodec(t, tab, OPT)
	rng := rand.New(rand.NewSource(50))
	sawLossy := false
	for i := 0; i < 2000; i++ {
		block := floatBlock(rng)
		d := c.Decide(block)
		switch d.Mode {
		case ModeUncompressed:
			if d.StoredBits != compress.BlockBits {
				t.Fatalf("uncompressed stored %d bits", d.StoredBits)
			}
		case ModeLossless:
			if d.StoredBits != d.CompBits {
				t.Fatalf("lossless stored %d ≠ comp %d", d.StoredBits, d.CompBits)
			}
			if d.ExtraBits > 0 && d.ExtraBits <= c.cfg.ThresholdBits {
				// Lossless despite qualifying extra bits is only legal if no
				// tree node could cover them.
				if d.Node.Count != 0 {
					t.Fatalf("qualifying block stayed lossless with node %+v", d.Node)
				}
			}
		case ModeLossy:
			sawLossy = true
			if d.ExtraBits <= 0 || d.ExtraBits > c.cfg.ThresholdBits {
				t.Fatalf("lossy with extra %d (threshold %d)", d.ExtraBits, c.cfg.ThresholdBits)
			}
			if d.StoredBits > d.BudgetBits {
				t.Fatalf("lossy stored %d exceeds budget %d", d.StoredBits, d.BudgetBits)
			}
			if d.Node.Count < 1 || d.Node.Count > MaxApproxSymbols {
				t.Fatalf("approximated %d symbols", d.Node.Count)
			}
			// Lossy must save at least one burst versus lossless.
			m := c.cfg.MAG
			if m.Bursts(d.StoredBits) >= m.Bursts(d.CompBits) {
				t.Fatalf("lossy saved no burst: %d vs %d bits", d.StoredBits, d.CompBits)
			}
		}
	}
	if !sawLossy {
		t.Error("test data never triggered the lossy mode; table/training mismatch")
	}
}

func TestLosslessRoundTrip(t *testing.T) {
	tab := testTable(t)
	c := newCodec(t, tab, OPT)
	rng := rand.New(rand.NewSource(51))
	dst := make([]byte, compress.BlockSize)
	n := 0
	for i := 0; i < 500 && n < 100; i++ {
		block := floatBlock(rng)
		if c.Decide(block).Mode == ModeLossy {
			continue
		}
		n++
		enc := c.Compress(block)
		if enc.Lossy {
			t.Fatal("encoded lossy despite lossless decision")
		}
		if err := c.Decompress(enc, dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, block) {
			t.Fatal("lossless round trip mismatch")
		}
	}
	if n == 0 {
		t.Error("no lossless blocks exercised")
	}
}

func TestLossyDamageConfinedToSpan(t *testing.T) {
	tab := testTable(t)
	for _, v := range []Variant{SIMP, PRED, OPT} {
		c := newCodec(t, tab, v)
		rng := rand.New(rand.NewSource(52))
		dst := make([]byte, compress.BlockSize)
		n := 0
		for i := 0; i < 3000 && n < 200; i++ {
			block := floatBlock(rng)
			d := c.Decide(block)
			if d.Mode != ModeLossy {
				continue
			}
			n++
			enc := c.Compress(block)
			if !enc.Lossy {
				t.Fatalf("%v: encoded lossless despite lossy decision", v)
			}
			if err := c.Decompress(enc, dst); err != nil {
				t.Fatal(err)
			}
			lo, hi := d.Node.Start*2, (d.Node.Start+d.Node.Count)*2
			if !bytes.Equal(dst[:lo], block[:lo]) || !bytes.Equal(dst[hi:], block[hi:]) {
				t.Fatalf("%v: damage outside approximated span [%d,%d)", v, lo, hi)
			}
		}
		if n == 0 {
			t.Errorf("%v: no lossy blocks exercised", v)
		}
	}
}

func TestSIMPFillsZeros(t *testing.T) {
	tab := testTable(t)
	c := newCodec(t, tab, SIMP)
	rng := rand.New(rand.NewSource(53))
	dst := make([]byte, compress.BlockSize)
	for i := 0; i < 3000; i++ {
		block := floatBlock(rng)
		d := c.Decide(block)
		if d.Mode != ModeLossy {
			continue
		}
		enc := c.Compress(block)
		if err := c.Decompress(enc, dst); err != nil {
			t.Fatal(err)
		}
		syms := compress.Symbols(dst)
		for j := d.Node.Start; j < d.Node.Start+d.Node.Count; j++ {
			if syms[j] != 0 {
				t.Fatalf("SIMP symbol %d = %x, want 0", j, syms[j])
			}
		}
		return
	}
	t.Error("no lossy block exercised")
}

func TestPREDFillsFirstNonTruncated(t *testing.T) {
	tab := testTable(t)
	c := newCodec(t, tab, PRED)
	rng := rand.New(rand.NewSource(54))
	dst := make([]byte, compress.BlockSize)
	n := 0
	for i := 0; i < 5000 && n < 50; i++ {
		block := floatBlock(rng)
		d := c.Decide(block)
		if d.Mode != ModeLossy {
			continue
		}
		n++
		enc := c.Compress(block)
		if err := c.Decompress(enc, dst); err != nil {
			t.Fatal(err)
		}
		syms := compress.Symbols(dst)
		// Stride-aware prediction: each truncated symbol takes the nearest
		// non-truncated symbol at the same offset modulo 4.
		lo, hi := d.Node.Start, d.Node.Start+d.Node.Count
		wantFor := func(i int) uint16 {
			for j := i - 4; j >= 0; j -= 4 {
				if j < lo {
					return syms[j]
				}
			}
			for j := i + 4; j < compress.SymbolsPerBlock; j += 4 {
				if j >= hi {
					return syms[j]
				}
			}
			for j := i % 2; j < compress.SymbolsPerBlock; j += 2 {
				if j < lo || j >= hi {
					return syms[j]
				}
			}
			return 0
		}
		for j := lo; j < hi; j++ {
			if syms[j] != wantFor(j) {
				t.Fatalf("PRED symbol %d = %x, want predicted %x", j, syms[j], wantFor(j))
			}
		}
	}
	if n == 0 {
		t.Error("no lossy blocks exercised")
	}
}

func TestThresholdZeroNeverLossy(t *testing.T) {
	tab := testTable(t)
	cfg := DefaultConfig()
	cfg.ThresholdBits = 0
	c, err := New(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 1000; i++ {
		if d := c.Decide(floatBlock(rng)); d.Mode == ModeLossy {
			t.Fatal("lossy mode with zero threshold")
		}
	}
}

func TestLargerThresholdMoreLossy(t *testing.T) {
	tab := testTable(t)
	count := func(thresholdBits int) int {
		cfg := DefaultConfig()
		cfg.ThresholdBits = thresholdBits
		c, err := New(tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(56))
		n := 0
		for i := 0; i < 2000; i++ {
			if c.Decide(floatBlock(rng)).Mode == ModeLossy {
				n++
			}
		}
		return n
	}
	n4, n16, n32 := count(4*8), count(16*8), count(32*8)
	if !(n4 <= n16 && n16 <= n32) {
		t.Errorf("lossy counts not monotone in threshold: %d, %d, %d", n4, n16, n32)
	}
	if n32 == 0 {
		t.Error("32B threshold produced no lossy blocks")
	}
}

func TestIncompressibleStoredRaw(t *testing.T) {
	tab := testTable(t)
	c := newCodec(t, tab, OPT)
	rng := rand.New(rand.NewSource(57))
	block := make([]byte, compress.BlockSize)
	rng.Read(block)
	d := c.Decide(block)
	if d.Mode != ModeUncompressed {
		t.Fatalf("random block mode = %v", d.Mode)
	}
	enc := c.Compress(block)
	if enc.Bits != compress.BlockBits || enc.Lossy {
		t.Fatalf("raw block: bits=%d lossy=%v", enc.Bits, enc.Lossy)
	}
	dst := make([]byte, compress.BlockSize)
	if err := c.Decompress(enc, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, block) {
		t.Error("raw round trip mismatch")
	}
}

func TestQuickPipelineInvariants(t *testing.T) {
	tab := testTable(t)
	codecs := map[Variant]*Codec{
		SIMP: newCodec(t, tab, SIMP),
		PRED: newCodec(t, tab, PRED),
		OPT:  newCodec(t, tab, OPT),
	}
	f := func(seed int64, pick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		v := []Variant{SIMP, PRED, OPT}[int(pick)%3]
		c := codecs[v]
		block := floatBlock(rng)
		d := c.Decide(block)
		enc := c.Compress(block)
		if enc.Bits != d.StoredBits {
			return false
		}
		dst := make([]byte, compress.BlockSize)
		if err := c.Decompress(enc, dst); err != nil {
			return false
		}
		if d.Mode != ModeLossy {
			return bytes.Equal(dst, block)
		}
		lo, hi := d.Node.Start*2, (d.Node.Start+d.Node.Count)*2
		return bytes.Equal(dst[:lo], block[:lo]) && bytes.Equal(dst[hi:], block[hi:]) &&
			enc.Bits <= d.BudgetBits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestDecompressRejectsBadSpan(t *testing.T) {
	tab := testTable(t)
	c := newCodec(t, tab, OPT)
	// Handcraft a header with ss+len beyond 64 symbols.
	w := compress.NewBitWriter(64)
	w.WriteBool(true)       // lossy
	w.WriteBits(60, ssBits) // ss = 60
	w.WriteBits(15, lenBits)
	for i := 0; i < 3; i++ {
		w.WriteBits(4, pdpBits)
	}
	w.AlignByte()
	enc := compress.Encoded{Bits: 64, Payload: append(w.Bytes(), make([]byte, 4)...)}
	dst := make([]byte, compress.BlockSize)
	if err := c.Decompress(enc, dst); err == nil {
		t.Error("expected span range error (60+16 > 64)")
	}
}

func TestVariantString(t *testing.T) {
	for v, want := range map[Variant]string{SIMP: "TSLC-SIMP", PRED: "TSLC-PRED", OPT: "TSLC-OPT"} {
		if v.String() != want {
			t.Errorf("Variant %d = %q", v, v.String())
		}
	}
	for m, want := range map[Mode]string{ModeUncompressed: "uncompressed", ModeLossless: "lossless", ModeLossy: "lossy"} {
		if m.String() != want {
			t.Errorf("Mode %d = %q", m, m.String())
		}
	}
}
