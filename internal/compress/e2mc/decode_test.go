package e2mc

import (
	"math/rand"
	"testing"

	"repro/internal/compress"
)

// buildPayload pastes encoded ways into a contiguous payload and returns the
// per-way byte offsets, mirroring what Compress and SLC's emit do.
func buildPayload(ways [PDWs][]byte) ([]byte, [PDWs]int) {
	var payload []byte
	var starts [PDWs]int
	for wy := 0; wy < PDWs; wy++ {
		starts[wy] = len(payload)
		payload = append(payload, ways[wy]...)
	}
	return payload, starts
}

// decodeTestTable trains a table whose alphabet mixes frequent symbols and
// escapes, so decode tests exercise both LUT entry kinds.
func decodeTestTable(t *testing.T) *Table {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	return trainOn(t, 300, func(i int) []byte {
		if i%4 == 0 {
			b := make([]byte, compress.BlockSize)
			rng.Read(b)
			return b
		}
		return smoothFloatBlock(rng)
	})
}

func TestDecodeWaysLUTMatchesReference(t *testing.T) {
	tab := decodeTestTable(t)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		block := smoothFloatBlock(rng)
		if trial%3 == 0 {
			rng.Read(block)
		}
		syms := compress.Symbols(block)
		skipStart, skipLen := 0, 0
		if trial%2 == 1 {
			skipLen = 1 + rng.Intn(MaxApproxSpanForTest())
			skipStart = rng.Intn(compress.SymbolsPerBlock - skipLen)
		}
		ways, _ := tab.EncodeWays(syms, skipStart, skipLen)
		payload, starts := buildPayload(ways)
		ref, refErr := tab.DecodeWaysRef(payload, starts, skipStart, skipLen)
		lut, lutErr := tab.DecodeWays(payload, starts, skipStart, skipLen)
		if (refErr == nil) != (lutErr == nil) {
			t.Fatalf("trial %d: refErr=%v lutErr=%v", trial, refErr, lutErr)
		}
		if refErr == nil && ref != lut {
			t.Fatalf("trial %d: LUT decode diverges from reference", trial)
		}
	}
}

// MaxApproxSpanForTest bounds the random skip spans the decode tests use to
// SLC's 16-symbol maximum.
func MaxApproxSpanForTest() int { return 16 }

func TestDecodeWaysRejectsBadWayStart(t *testing.T) {
	tab := decodeTestTable(t)
	payload := make([]byte, 16)
	for _, starts := range [][PDWs]int{
		{0, 4, 8, 17}, // beyond payload
		{-1, 0, 0, 0}, // negative
	} {
		if _, err := tab.DecodeWays(payload, starts, 0, 0); err == nil {
			t.Errorf("starts %v: LUT decode accepted bad way start", starts)
		}
		if _, err := tab.DecodeWaysRef(payload, starts, 0, 0); err == nil {
			t.Errorf("starts %v: reference decode accepted bad way start", starts)
		}
	}
}

func TestDecodeWaysAllocFree(t *testing.T) {
	tab := decodeTestTable(t)
	rng := rand.New(rand.NewSource(45))
	syms := compress.Symbols(smoothFloatBlock(rng))
	ways, _ := tab.EncodeWays(syms, 0, 0)
	payload, starts := buildPayload(ways)
	if _, err := tab.DecodeWays(payload, starts, 0, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := tab.DecodeWays(payload, starts, 0, 0); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Table.DecodeWays steady state allocates %.1f objects per block, want 0", allocs)
	}
}

// FuzzDecodeLUT cross-checks the LUT decoder against the retained bit-by-bit
// reference on arbitrary payloads: both must agree on error versus success,
// and on the decoded symbols when both succeed; neither may panic or read
// outside the payload. When the reference succeeds, the decoded symbols are
// re-encoded and the LUT decoder must reproduce them exactly.
func FuzzDecodeLUT(f *testing.F) {
	rng := rand.New(rand.NewSource(46))
	tr := NewTrainer()
	for i := 0; i < 300; i++ {
		if i%4 == 0 {
			b := make([]byte, compress.BlockSize)
			rng.Read(b)
			tr.Sample(b)
			continue
		}
		tr.Sample(smoothFloatBlock(rng))
	}
	tab, err := tr.Build(0, 0)
	if err != nil {
		f.Fatal(err)
	}

	// Seed with valid encodings so the fuzzer starts from decodable streams.
	for i := 0; i < 4; i++ {
		syms := compress.Symbols(smoothFloatBlock(rng))
		ways, _ := tab.EncodeWays(syms, 0, 0)
		payload, starts := buildPayload(ways)
		f.Add(payload, byte(starts[0]), byte(starts[1]), byte(starts[2]), byte(starts[3]), byte(0), byte(0))
	}
	f.Add([]byte{}, byte(0), byte(0), byte(0), byte(0), byte(3), byte(9))
	f.Add([]byte{0xff, 0x00, 0xa5}, byte(0), byte(1), byte(2), byte(3), byte(60), byte(16))

	f.Fuzz(func(t *testing.T, payload []byte, s0, s1, s2, s3, ss, sl byte) {
		starts := [PDWs]int{int(s0), int(s1), int(s2), int(s3)}
		skipLen := int(sl) % (MaxApproxSpanForTest() + 1)
		skipStart := 0
		if skipLen > 0 {
			skipStart = int(ss) % (compress.SymbolsPerBlock - skipLen + 1)
		}

		ref, refErr := tab.DecodeWaysRef(payload, starts, skipStart, skipLen)
		lut, lutErr := tab.DecodeWays(payload, starts, skipStart, skipLen)
		if (refErr == nil) != (lutErr == nil) {
			t.Fatalf("decoders disagree on validity: refErr=%v lutErr=%v", refErr, lutErr)
		}
		if refErr != nil {
			return // malformed stream: both errored, neither panicked
		}
		if lut != ref {
			t.Fatal("LUT decode diverges from reference on valid stream")
		}

		// Re-encode the decoded symbols: the LUT decoder must read them back.
		ways, _ := tab.EncodeWays(ref, skipStart, skipLen)
		payload2, starts2 := buildPayload(ways)
		again, err := tab.DecodeWays(payload2, starts2, skipStart, skipLen)
		if err != nil {
			t.Fatalf("re-encoded stream failed decode: %v", err)
		}
		if again != ref {
			t.Fatal("re-encoded stream decodes to different symbols")
		}
	})
}
