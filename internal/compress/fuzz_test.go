package compress_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"repro/internal/compress"
	_ "repro/internal/compress/all" // register every codec
	"repro/internal/compress/e2mc"
	"repro/internal/slc"
)

// Native fuzz targets for every registered codec: any 128-byte block must
// round-trip exactly through a lossless codec, and a lossy codec may only
// perturb a bounded contiguous symbol span (the TSLC invariant). The
// targets are grouped into families so CI can give each family its own
// coverage-guided budget; TestFuzzFamiliesCoverRegistry pins the grouping
// to compress.Names(), so registering a new codec fails the suite until it
// is assigned to a family.

var fuzzFamilies = map[string][]string{
	// 32-bit-word codecs plus the byte/sector dedup pair (lz4b's window
	// matcher and zcd's sector classifier share the word family's seeds:
	// the 1024-bit boundary sweep and the zero/repeat blocks are exactly
	// their interesting inputs).
	"word":    {"bdi", "bpc", "cpack", "fpc", "lz4b", "zcd"},
	"entropy": {"e2mc", "hycomp", "raw"},              // table-driven + identity
	"slc":     {"tslc-simp", "tslc-pred", "tslc-opt"}, // lossy TSLC variants
	"bounded": {"sz-lorenzo", "sz-linear"},            // error-bounded float codecs
}

func TestFuzzFamiliesCoverRegistry(t *testing.T) {
	var covered []string
	for fam, names := range fuzzFamilies {
		for _, n := range names {
			if _, ok := compress.Lookup(n); !ok {
				t.Errorf("fuzz family %q lists unregistered codec %q", fam, n)
			}
			covered = append(covered, n)
		}
	}
	sort.Strings(covered)
	registered := compress.Names()
	if len(covered) != len(registered) {
		t.Fatalf("fuzz families cover %d codecs, registry has %d: %v vs %v\n"+
			"assign every new codec to a family in fuzzFamilies",
			len(covered), len(registered), covered, registered)
	}
	for i, n := range registered {
		if covered[i] != n {
			t.Errorf("registered codec %q is not covered by any fuzz family", n)
		}
	}
}

// fuzzBlock normalises arbitrary fuzz input to exactly one block: truncate
// long inputs, tile short ones (so tiny seeds still explore all 128 bytes).
func fuzzBlock(data []byte) []byte {
	block := make([]byte, compress.BlockSize)
	if len(data) == 0 {
		return block
	}
	for i := range block {
		block[i] = data[i%len(data)]
	}
	return block
}

// buildCodec constructs one registered codec for a block. Table-driven
// codecs train on the block itself (any valid table must round-trip); lossy
// codecs run at the paper's default threshold.
func buildCodec(tb testing.TB, name string, block []byte) compress.Codec {
	tb.Helper()
	info, ok := compress.Lookup(name)
	if !ok {
		tb.Fatalf("codec %q not registered", name)
	}
	ctx := compress.BuildContext{MAG: compress.MAG32}
	if info.NeedsTable {
		tr := e2mc.NewTrainer()
		tr.Sample(block)
		tab, err := tr.Build(0, 0)
		if err != nil {
			tb.Fatalf("%s: training on fuzz block: %v", name, err)
		}
		ctx.Table = tab
	}
	c, err := info.New(ctx)
	if err != nil {
		tb.Fatalf("%s: build: %v", name, err)
	}
	return c
}

// checkRoundTrip compresses and decompresses one block through one codec
// and asserts the family's round-trip contract.
func checkRoundTrip(t *testing.T, name string, block []byte) {
	t.Helper()
	c := buildCodec(t, name, block)
	enc := c.Compress(block)
	if enc.Bits <= 0 || enc.Bits > compress.BlockBits {
		t.Fatalf("%s: compressed size %d bits outside (0, %d]", name, enc.Bits, compress.BlockBits)
	}
	if len(enc.Payload) < enc.Bytes() {
		t.Fatalf("%s: payload %d bytes shorter than encoded size %d bytes", name, len(enc.Payload), enc.Bytes())
	}
	dst := make([]byte, compress.BlockSize)
	if err := c.Decompress(enc, dst); err != nil {
		t.Fatalf("%s: decompress own output: %v", name, err)
	}
	checkSyncBlock(t, name, c, block, enc, dst)
	if !enc.Lossy {
		if !bytes.Equal(dst, block) {
			t.Fatalf("%s: lossless round trip corrupted block\n in: %x\nout: %x", name, block, dst)
		}
		return
	}
	// Lossy: only a bounded contiguous span of 16-bit symbols may change.
	in, out := compress.Symbols(block), compress.Symbols(dst)
	first, last, diffs := -1, -1, 0
	for i := range in {
		if in[i] != out[i] {
			if first < 0 {
				first = i
			}
			last = i
			diffs++
		}
	}
	if diffs == 0 {
		return
	}
	if diffs > slc.MaxApproxSymbols || last-first+1 > slc.MaxApproxSymbols {
		t.Fatalf("%s: lossy output differs in %d symbols over span [%d,%d], max %d",
			name, diffs, first, last, slc.MaxApproxSymbols)
	}
	// The decision that produced a lossy encoding must have respected the
	// threshold and landed on the burst budget.
	if sc, ok := c.(*slc.Codec); ok {
		d := sc.Decide(block)
		if d.Mode == slc.ModeLossy {
			if d.ExtraBits <= 0 || d.ExtraBits > sc.Config().ThresholdBits {
				t.Fatalf("%s: lossy decision with ExtraBits %d outside (0, %d]",
					name, d.ExtraBits, sc.Config().ThresholdBits)
			}
			if d.StoredBits > d.BudgetBits {
				t.Fatalf("%s: lossy stored %d bits above budget %d", name, d.StoredBits, d.BudgetBits)
			}
		}
	}
}

// checkSyncBlock asserts the compress.Codec SyncBlock contract on one block,
// given the codec's own Compress output enc and its Decompress output dst:
// the same bits and lossy flag, the Decompress output written back when
// lossy, and the block left unchanged otherwise. block itself is not
// touched; SyncBlock runs on a copy.
func checkSyncBlock(t *testing.T, name string, c compress.Codec, block []byte, enc compress.Encoded, dst []byte) {
	t.Helper()
	synced := make([]byte, compress.BlockSize)
	copy(synced, block)
	bits, lossy := c.SyncBlock(synced)
	if bits != enc.Bits || lossy != enc.Lossy {
		t.Fatalf("%s: SyncBlock (%d, %v) disagrees with Compress (%d, %v)",
			name, bits, lossy, enc.Bits, enc.Lossy)
	}
	if lossy && !bytes.Equal(synced, dst) {
		t.Fatalf("%s: SyncBlock write-back differs from Decompress output", name)
	}
	if !lossy && !bytes.Equal(synced, block) {
		t.Fatalf("%s: non-lossy SyncBlock mutated the block", name)
	}
}

// addSeeds seeds a fuzz corpus with the structured blocks that have caught
// real bugs: the all-zero and all-ones blocks, ramps, and — from the PR 2
// FPC/C-PACK bugfix — mixes of incompressible and compressible words that
// sweep the stored size across the exactly-1024-bit boundary (a stream of
// exactly BlockBits must be stored raw, because Decompress reads any
// full-size encoding as a raw payload).
func addSeeds(f *testing.F) {
	zero := make([]byte, compress.BlockSize)
	f.Add(zero)
	ones := bytes.Repeat([]byte{0xFF}, compress.BlockSize)
	f.Add(ones)
	ramp := make([]byte, compress.BlockSize)
	for i := range ramp {
		ramp[i] = byte(i)
	}
	f.Add(ramp)
	// k high-entropy words followed by zeros, for k sweeping the block: the
	// per-word costs walk the compressed size through the 1024-bit boundary
	// for the word codecs, and give the entropy codecs skewed tables with a
	// heavy escape tail.
	for _, k := range []int{1, 8, 16, 24, 28, 29, 30, 31, 32} {
		var words [compress.WordsPerBlock]uint32
		x := uint32(0x2545F491)
		for i := 0; i < k; i++ {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			words[i] = x
		}
		block := make([]byte, compress.BlockSize)
		compress.PutWords(block, words)
		f.Add(block)
	}
	// One seed per zcd sector shape at 32 B MAG — zero, repeated word,
	// literal, repeated word — which is also an lz4b stream mixing long
	// overlapping matches with an incompressible span.
	mixed := make([]byte, compress.BlockSize)
	for i := 32; i < 64; i += 4 {
		binary.LittleEndian.PutUint32(mixed[i:], 0x40490FDB)
	}
	x := uint32(0x9E3779B9)
	for i := 64; i < 96; i += 4 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		binary.LittleEndian.PutUint32(mixed[i:], x)
	}
	for i := 96; i < 128; i += 4 {
		binary.LittleEndian.PutUint32(mixed[i:], 0x40490FDB)
	}
	f.Add(mixed)
}

// fuzzFamily runs one family's codecs over a normalised fuzz input.
func fuzzFamily(f *testing.F, family string) {
	addSeeds(f)
	names := fuzzFamilies[family]
	f.Fuzz(func(t *testing.T, data []byte) {
		block := fuzzBlock(data)
		for _, name := range names {
			checkRoundTrip(t, name, block)
		}
	})
}

func FuzzRoundTripWord(f *testing.F)    { fuzzFamily(f, "word") }
func FuzzRoundTripEntropy(f *testing.F) { fuzzFamily(f, "entropy") }
func FuzzRoundTripSLC(f *testing.F)     { fuzzFamily(f, "slc") }

// checkBoundedRoundTrip asserts the error-bounded contract on one codec at
// one bound: every reconstructed float32 within the bound, non-finite lanes
// bit-exact, encoding deterministic, and SyncBlock equivalent to Compress
// followed by Decompress.
func checkBoundedRoundTrip(t *testing.T, name string, bound float64, block []byte) {
	t.Helper()
	info, ok := compress.Lookup(name)
	if !ok {
		t.Fatalf("codec %q not registered", name)
	}
	if !info.LossyBounded {
		t.Fatalf("codec %q is in the bounded family without the LossyBounded trait", name)
	}
	c, err := info.New(compress.BuildContext{MAG: compress.MAG32, ErrorBound: bound})
	if err != nil {
		t.Fatalf("%s: build at bound %g: %v", name, bound, err)
	}
	enc := c.Compress(block)
	if enc.Bits <= 0 || enc.Bits > compress.BlockBits {
		t.Fatalf("%s: compressed size %d bits outside (0, %d]", name, enc.Bits, compress.BlockBits)
	}
	if len(enc.Payload) < enc.Bytes() {
		t.Fatalf("%s: payload %d bytes shorter than encoded size %d bytes", name, len(enc.Payload), enc.Bytes())
	}
	enc2 := c.Compress(block)
	if enc2.Bits != enc.Bits || enc2.Lossy != enc.Lossy || !bytes.Equal(enc2.Payload, enc.Payload) {
		t.Fatalf("%s: two encodes of the same block differ", name)
	}
	dst := make([]byte, compress.BlockSize)
	if err := c.Decompress(enc, dst); err != nil {
		t.Fatalf("%s: decompress own output: %v", name, err)
	}
	if !enc.Lossy && !bytes.Equal(dst, block) {
		t.Fatalf("%s: non-lossy encoding does not round-trip exactly", name)
	}
	if diff := maxFloatDiff(block, dst); diff > bound {
		t.Fatalf("%s: reconstruction off by %g at bound %g\n in: %x\nout: %x",
			name, diff, bound, block, dst)
	}
	checkSyncBlock(t, name, c, block, enc, dst)
}

// addBoundedSeeds extends the shared corpus with float-specific blocks: the
// IEEE-754 special values that must pass through bit-exact (NaN, ±Inf,
// denormals), smooth float ramps that quantize everywhere, and mixes of
// unpredictable and smooth lanes that walk the encoded size toward the
// inclusive 1024-bit raw-fallback boundary.
func addBoundedSeeds(f *testing.F) {
	addSeeds(f)
	var specials [compress.WordsPerBlock]uint32
	patterns := []uint32{
		0x7FC00000,          // quiet NaN
		0x7F800000,          // +Inf
		0xFF800000,          // −Inf
		0x00000001,          // smallest denormal
		0x807FFFFF,          // largest negative denormal
		0x7F7FFFFF,          // MaxFloat32
		math.Float32bits(0), // ±0 pair with the next entry
		0x80000000,
	}
	for i := range specials {
		specials[i] = patterns[i%len(patterns)]
	}
	block := make([]byte, compress.BlockSize)
	compress.PutWords(block, specials)
	f.Add(append([]byte(nil), block...))
	// Smooth ramp: tiny deltas, the all-quantized best case.
	var ramp [compress.WordsPerBlock]uint32
	for i := range ramp {
		ramp[i] = math.Float32bits(1 + float32(i)*1e-4)
	}
	compress.PutWords(block, ramp)
	f.Add(append([]byte(nil), block...))
	// k unpredictable magnitudes then a smooth tail: sweeps the literal
	// count through the raw-fallback boundary.
	for _, k := range []int{28, 29, 30, 31, 32} {
		var words [compress.WordsPerBlock]uint32
		x := uint32(0x2545F491)
		for i := range words {
			if i < k {
				x ^= x << 13
				x ^= x >> 17
				x ^= x << 5
				words[i] = math.Float32bits(float32(int32(x)) * 1e8)
			} else {
				words[i] = math.Float32bits(float32(i))
			}
		}
		compress.PutWords(block, words)
		f.Add(append([]byte(nil), block...))
	}
}

// FuzzBoundedRoundTrip drives the error-bounded family across three decades
// of bounds per input.
func FuzzBoundedRoundTrip(f *testing.F) {
	addBoundedSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		block := fuzzBlock(data)
		for _, name := range fuzzFamilies["bounded"] {
			for _, bound := range []float64{1e-1, 1e-3, 1e-6} {
				checkBoundedRoundTrip(t, name, bound, block)
			}
		}
	})
}
