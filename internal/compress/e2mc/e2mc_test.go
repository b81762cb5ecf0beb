package e2mc

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/compress"
)

// trainOn builds a table from n blocks produced by gen.
func trainOn(t *testing.T, n int, gen func(i int) []byte) *Table {
	t.Helper()
	tr := NewTrainer()
	for i := 0; i < n; i++ {
		tr.Sample(gen(i))
	}
	tab, err := tr.Build(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// smoothFloatBlock mimics the float data GPU workloads stream: values close
// to each other so high 16-bit symbols repeat heavily.
func smoothFloatBlock(rng *rand.Rand) []byte {
	block := make([]byte, compress.BlockSize)
	base := rng.Float32() * 4
	for i := 0; i < 32; i++ {
		v := base + rng.Float32()*0.01
		binary.LittleEndian.PutUint32(block[i*4:], math.Float32bits(v))
	}
	return block
}

func TestCodecRoundTripTrainedData(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	blocks := make([][]byte, 300)
	for i := range blocks {
		blocks[i] = smoothFloatBlock(rng)
	}
	tab := trainOn(t, len(blocks), func(i int) []byte { return blocks[i] })
	c := New(tab)
	dst := make([]byte, compress.BlockSize)
	for i, b := range blocks {
		enc := c.Compress(b)
		if err := c.Decompress(enc, dst); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if !bytes.Equal(dst, b) {
			t.Fatalf("block %d: round trip mismatch", i)
		}
	}
}

func TestCodecCompressesTrainedData(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	blocks := make([][]byte, 500)
	for i := range blocks {
		blocks[i] = smoothFloatBlock(rng)
	}
	tab := trainOn(t, len(blocks), func(i int) []byte { return blocks[i] })
	c := New(tab)
	var total int
	for _, b := range blocks {
		total += c.Compress(b).Bits
	}
	avg := float64(total) / float64(len(blocks))
	// Smooth floats have repetitive upper symbols but noisy mantissa lower
	// symbols; E2MC lands around 1.1–1.5× on such data.
	if avg >= compress.BlockBits {
		t.Errorf("trained data did not compress: avg %.0f bits", avg)
	}
}

func TestCodecCompressesQuantizedData(t *testing.T) {
	// Quantized values (small alphabet in both symbol halves) must compress
	// strongly.
	rng := rand.New(rand.NewSource(27))
	gen := func() []byte {
		b := make([]byte, compress.BlockSize)
		base := float32(1.0)
		for i := 0; i < 32; i++ {
			q := base + float32(rng.Intn(16))/16
			binary.LittleEndian.PutUint32(b[i*4:], math.Float32bits(q))
		}
		return b
	}
	blocks := make([][]byte, 500)
	for i := range blocks {
		blocks[i] = gen()
	}
	tab := trainOn(t, len(blocks), func(i int) []byte { return blocks[i] })
	c := New(tab)
	var total int
	for _, b := range blocks {
		total += c.Compress(b).Bits
	}
	avg := float64(total) / float64(len(blocks))
	if avg > 0.5*compress.BlockBits {
		t.Errorf("weak compression on quantized floats: avg %.0f bits (%.2fx)",
			avg, compress.BlockBits/avg)
	}
}

func TestCodecRoundTripUntrainedData(t *testing.T) {
	// Data unlike the training set must still round trip via escapes or raw
	// fallback.
	tab := trainOn(t, 200, func(i int) []byte {
		rng := rand.New(rand.NewSource(int64(i)))
		return smoothFloatBlock(rng)
	})
	c := New(tab)
	rng := rand.New(rand.NewSource(99))
	dst := make([]byte, compress.BlockSize)
	for trial := 0; trial < 100; trial++ {
		block := make([]byte, compress.BlockSize)
		rng.Read(block)
		enc := c.Compress(block)
		if enc.Bits > compress.BlockBits {
			t.Fatalf("bits %d exceeds block", enc.Bits)
		}
		if err := c.Decompress(enc, dst); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(dst, block) {
			t.Fatalf("trial %d: round trip mismatch", trial)
		}
	}
}

func TestSyncBlockMatchesCompress(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	blocks := make([][]byte, 300)
	for i := range blocks {
		if i%3 == 0 {
			blocks[i] = make([]byte, compress.BlockSize)
			rng.Read(blocks[i])
		} else {
			blocks[i] = smoothFloatBlock(rng)
		}
	}
	tab := trainOn(t, len(blocks), func(i int) []byte { return blocks[i] })
	c := New(tab)
	for i, b := range blocks {
		want := c.Compress(b).Bits
		orig := bytes.Clone(b)
		if got, lossy := c.SyncBlock(b); got != want || lossy || !bytes.Equal(b, orig) {
			t.Fatalf("block %d: SyncBlock = (%d, %v), Compress.Bits = %d, block changed %v", i, got, lossy, want, !bytes.Equal(b, orig))
		}
	}
}

func TestEncodeDecodeWaysWithSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	blocks := make([][]byte, 200)
	for i := range blocks {
		blocks[i] = smoothFloatBlock(rng)
	}
	tab := trainOn(t, len(blocks), func(i int) []byte { return blocks[i] })

	syms := compress.Symbols(blocks[0])
	for _, span := range []struct{ start, n int }{
		{0, 4}, {12, 8}, {16, 16}, {30, 6}, {60, 4}, {5, 0},
	} {
		ways, wayBits := tab.EncodeWays(syms, span.start, span.n)
		// Paste ways into a contiguous payload, record offsets.
		var payload []byte
		var starts [PDWs]int
		for wy := 0; wy < PDWs; wy++ {
			starts[wy] = len(payload)
			payload = append(payload, ways[wy]...)
			if wayBits[wy] > len(ways[wy])*8 {
				t.Fatalf("way %d bits %d exceed payload", wy, wayBits[wy])
			}
		}
		got, err := tab.DecodeWays(payload, starts, span.start, span.n)
		if err != nil {
			t.Fatalf("span %+v: %v", span, err)
		}
		for i := range syms {
			inSkip := i >= span.start && i < span.start+span.n
			switch {
			case inSkip && got[i] != 0:
				t.Fatalf("span %+v: skipped symbol %d decoded to %x", span, i, got[i])
			case !inSkip && got[i] != syms[i]:
				t.Fatalf("span %+v: symbol %d = %x, want %x", span, i, got[i], syms[i])
			}
		}
	}
}

func TestSkipShrinksEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	blocks := make([][]byte, 100)
	for i := range blocks {
		blocks[i] = smoothFloatBlock(rng)
	}
	tab := trainOn(t, len(blocks), func(i int) []byte { return blocks[i] })
	syms := compress.Symbols(blocks[1])

	_, fullBits := tab.EncodeWays(syms, 0, 0)
	_, skipBits := tab.EncodeWays(syms, 16, 16) // drop all of way 1
	if skipBits[1] != 0 {
		t.Errorf("way 1 should be empty after skipping its span, got %d bits", skipBits[1])
	}
	for wy := 0; wy < PDWs; wy++ {
		if wy != 1 && skipBits[wy] != fullBits[wy] {
			t.Errorf("way %d changed: %d → %d bits", wy, fullBits[wy], skipBits[wy])
		}
	}
}

func TestSymbolBitsEscapeCost(t *testing.T) {
	tab := trainOn(t, 100, func(i int) []byte {
		b := make([]byte, compress.BlockSize)
		for j := 0; j < 64; j++ {
			binary.LittleEndian.PutUint16(b[j*2:], uint16(j%4)) // tiny alphabet
		}
		return b
	})
	for s := uint16(0); s < 4; s++ {
		if got := tab.SymbolBits(s); got > 8 {
			t.Errorf("frequent symbol %d costs %d bits", s, got)
		}
	}
	// A symbol never seen must cost escape + 16 raw bits.
	if got := tab.SymbolBits(0xBEEF); got < escapeRawBits+1 {
		t.Errorf("escaped symbol costs %d bits, want ≥ %d", got, escapeRawBits+1)
	}
	if got, max := tab.SymbolBits(0xBEEF), tab.maxLen+escapeRawBits; got > max {
		t.Errorf("escape cost %d exceeds the maximum symbol cost %d", got, max)
	}
}

func TestTrainerBuildTableSizeBound(t *testing.T) {
	tr := NewTrainer()
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 2000; i++ {
		b := make([]byte, compress.BlockSize)
		rng.Read(b)
		tr.Sample(b)
	}
	tab, err := tr.Build(256, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.syms) > 255 {
		t.Errorf("table holds %d symbols, want ≤ 255", len(tab.syms))
	}
	assertKraft(t, tab.codeLengths(), 12)
}

func TestHeaderBitsAccounted(t *testing.T) {
	// A highly compressible block must include the 24-bit header in Bits.
	tab := trainOn(t, 100, func(i int) []byte { return make([]byte, compress.BlockSize) })
	c := New(tab)
	zero := make([]byte, compress.BlockSize)
	enc := c.Compress(zero)
	// 64 symbols of (likely) 1 bit each = 16 bits per way → 2 bytes per way
	// = 8 payload bytes + 3 header bytes = 88 bits.
	if enc.Bits < HeaderBits+PDWs*8 {
		t.Errorf("bits = %d, too small to include header", enc.Bits)
	}
	dst := make([]byte, compress.BlockSize)
	if err := c.Decompress(enc, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, zero) {
		t.Error("round trip mismatch")
	}
}

func TestDecompressTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	tab := trainOn(t, 100, func(i int) []byte { return smoothFloatBlock(rng) })
	c := New(tab)
	enc := c.Compress(smoothFloatBlock(rng))
	if enc.Bits >= compress.BlockBits {
		t.Skip("block did not compress")
	}
	enc.Payload = enc.Payload[:2]
	dst := make([]byte, compress.BlockSize)
	if err := c.Decompress(enc, dst); err == nil {
		t.Error("expected error for truncated payload")
	}
}

func TestDecompressGarbageNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	tab := trainOn(t, 200, func(i int) []byte { return smoothFloatBlock(rand.New(rand.NewSource(int64(i)))) })
	c := New(tab)
	dst := make([]byte, compress.BlockSize)
	for i := 0; i < 300; i++ {
		n := rng.Intn(96) + 3
		payload := make([]byte, n)
		rng.Read(payload)
		// Must never panic; errors are fine.
		_ = c.Decompress(compress.Encoded{Bits: n * 8, Payload: payload}, dst)
	}
}

func TestWaysAreByteAligned(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tab := trainOn(t, 200, func(i int) []byte { return smoothFloatBlock(rng) })
	syms := compress.Symbols(smoothFloatBlock(rng))
	ways, wayBits := tab.EncodeWays(syms, 0, 0)
	for wy := 0; wy < PDWs; wy++ {
		if len(ways[wy])*8 < wayBits[wy] {
			t.Fatalf("way %d: payload %d bits < declared %d", wy, len(ways[wy])*8, wayBits[wy])
		}
		if len(ways[wy])*8-wayBits[wy] >= 8 {
			t.Fatalf("way %d: padding %d bits ≥ one byte", wy, len(ways[wy])*8-wayBits[wy])
		}
	}
}

func TestCompressDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	tab := trainOn(t, 100, func(i int) []byte { return smoothFloatBlock(rng) })
	c := New(tab)
	block := smoothFloatBlock(rng)
	orig := make([]byte, len(block))
	copy(orig, block)
	c.Compress(block)
	if !bytes.Equal(orig, block) {
		t.Error("Compress mutated its input")
	}
}
