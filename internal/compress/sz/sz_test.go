package sz_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/compress"
	_ "repro/internal/compress/fpc" // the lossless comparator
	"repro/internal/compress/sz"
	"repro/internal/workloads"
)

// floatFields names the three HPC float generators the property tests sweep.
var floatFields = []struct {
	name string
	gen  func(n int, seed uint64) []float32
}{
	{"smooth", workloads.SmoothField},
	{"turbulent", workloads.TurbulentField},
	{"sparse", workloads.SparseField},
}

// blocksOf packs a float field into 128-byte blocks (discarding any ragged
// tail, which the generators' power-of-two sizes never produce).
func blocksOf(vals []float32) [][]byte {
	per := compress.BlockSize / 4
	n := len(vals) / per
	blocks := make([][]byte, n)
	for b := 0; b < n; b++ {
		var w [compress.WordsPerBlock]uint32
		for i := range w {
			w[i] = math.Float32bits(vals[b*per+i])
		}
		blk := make([]byte, compress.BlockSize)
		compress.PutWords(blk, w)
		blocks[b] = blk
	}
	return blocks
}

func maxLaneErr(t *testing.T, block, dst []byte) float64 {
	t.Helper()
	wa, wb := compress.Words(block), compress.Words(dst)
	worst := 0.0
	for i := range wa {
		va := float64(math.Float32frombits(wa[i]))
		if math.IsNaN(va) || math.IsInf(va, 0) {
			if wa[i] != wb[i] {
				t.Fatalf("non-finite lane %d not bit-exact: %08x -> %08x", i, wa[i], wb[i])
			}
			continue
		}
		if d := math.Abs(float64(math.Float32frombits(wb[i])) - va); d > worst {
			worst = d
		}
	}
	return worst
}

// TestBoundSweepProperties is the decade sweep of ISSUE 10: for every
// generator × predictor × bound in 1e-1…1e-6, (1) every reconstructed value
// is within the bound, (2) total compressed bits grow monotonically as the
// bound tightens, and (3) encoding is deterministic (two encodes
// byte-identical).
func TestBoundSweepProperties(t *testing.T) {
	const n = 16 << 10
	bounds := []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6}
	for _, field := range floatFields {
		blocks := blocksOf(field.gen(n, 4242))
		for _, pred := range []sz.Predictor{sz.Lorenzo, sz.Linear} {
			prevBits := -1
			prevBound := 0.0
			for _, bound := range bounds {
				c, err := sz.New(pred, bound)
				if err != nil {
					t.Fatal(err)
				}
				total := 0
				dst := make([]byte, compress.BlockSize)
				for bi, block := range blocks {
					enc := c.Compress(block)
					enc2 := c.Compress(block)
					if enc2.Bits != enc.Bits || !bytes.Equal(enc2.Payload, enc.Payload) {
						t.Fatalf("%s/%s bound %g block %d: non-deterministic encode",
							field.name, pred, bound, bi)
					}
					if err := c.Decompress(enc, dst); err != nil {
						t.Fatalf("%s/%s bound %g block %d: decompress: %v",
							field.name, pred, bound, bi, err)
					}
					if worst := maxLaneErr(t, block, dst); worst > bound {
						t.Fatalf("%s/%s bound %g block %d: reconstruction off by %g",
							field.name, pred, bound, bi, worst)
					}
					total += enc.Bits
				}
				if prevBits >= 0 && total < prevBits {
					t.Fatalf("%s/%s: compressed size shrank from %d bits at bound %g to %d at tighter bound %g",
						field.name, pred, prevBits, prevBound, total, bound)
				}
				prevBits, prevBound = total, bound
			}
		}
	}
}

// TestSmoothFieldBeatsLosslessRatio pins the headline behaviour: at the
// default 1e-3 bound the sz codecs compress the smooth field better than
// the strongest lossless word codec in the registry (FPC, sz's own exact
// base).
func TestSmoothFieldBeatsLosslessRatio(t *testing.T) {
	const n = 16 << 10
	blocks := blocksOf(workloads.SmoothField(n, 4242))
	szBits, fpcBits := 0, 0
	c, err := sz.New(sz.Lorenzo, 0)
	if err != nil {
		t.Fatal(err)
	}
	fpc, err := compress.Build("fpc", compress.BuildContext{})
	if err != nil {
		t.Fatal(err)
	}
	for _, block := range blocks {
		szBits += c.Compress(block).Bits
		fpcBits += fpc.Compress(block).Bits
	}
	if szBits >= fpcBits {
		t.Fatalf("sz-lorenzo used %d bits on the smooth field, fpc used %d — the bounded codec should win",
			szBits, fpcBits)
	}
}

// TestRawFallbackBoundary pins the inclusive 1024-bit boundary: a block of
// NaN lanes encodes as 32 literals, which exceeds BlockBits with the mask
// header, so it must be stored raw, never lossy, and round-trip bit-exact.
func TestRawFallbackBoundary(t *testing.T) {
	var words [compress.WordsPerBlock]uint32
	for i := range words {
		words[i] = 0x7FC00000 | uint32(i) // distinct NaN payloads
	}
	block := make([]byte, compress.BlockSize)
	compress.PutWords(block, words)
	for _, pred := range []sz.Predictor{sz.Lorenzo, sz.Linear} {
		c, err := sz.New(pred, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		enc := c.Compress(block)
		if enc.Bits != compress.BlockBits || enc.Lossy {
			t.Fatalf("%s: all-literal block got (%d bits, lossy=%v), want raw (%d, false)",
				pred, enc.Bits, enc.Lossy, compress.BlockBits)
		}
		dst := make([]byte, compress.BlockSize)
		if err := c.Decompress(enc, dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, block) {
			t.Fatalf("%s: raw fallback round trip mismatch", pred)
		}
		bits, lossy := c.SyncBlock(block)
		if bits != compress.BlockBits || lossy {
			t.Fatalf("%s: SyncBlock (%d, %v) on raw-fallback block", pred, bits, lossy)
		}
	}
}

// TestDecompressRejectsCorruptPayload covers the decoder's error paths:
// truncated payloads and short raw payloads must error, never panic.
func TestDecompressRejectsCorruptPayload(t *testing.T) {
	c, err := sz.New(sz.Lorenzo, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	blocks := blocksOf(workloads.SmoothField(1024, 7))
	enc := c.Compress(blocks[0])
	if enc.Bits >= compress.BlockBits {
		t.Fatalf("smooth block unexpectedly stored raw")
	}
	dst := make([]byte, compress.BlockSize)
	trunc := compress.Encoded{Bits: enc.Bits, Payload: enc.Payload[:1], Lossy: enc.Lossy}
	if err := c.Decompress(trunc, dst); err == nil {
		t.Error("truncated payload decompressed without error")
	}
	raw := compress.Encoded{Bits: compress.BlockBits, Payload: enc.Payload}
	if err := c.Decompress(raw, dst); err == nil {
		t.Error("short raw payload decompressed without error")
	}
	if err := c.Decompress(enc, make([]byte, 16)); err == nil {
		t.Error("short dst accepted")
	}
}

// TestNewRejectsInvalidBounds pins bound validation and the default.
func TestNewRejectsInvalidBounds(t *testing.T) {
	for _, bad := range []float64{-1e-3, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := sz.New(sz.Lorenzo, bad); err == nil {
			t.Errorf("New accepted bound %v", bad)
		}
	}
	c, err := sz.New(sz.Linear, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Bound() != sz.DefaultBound {
		t.Errorf("zero bound resolved to %g, want DefaultBound %g", c.Bound(), sz.DefaultBound)
	}
	if c.Name() != "SZ-LINEAR" {
		t.Errorf("Name() = %q", c.Name())
	}
}
