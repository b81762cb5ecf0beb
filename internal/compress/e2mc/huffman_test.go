package e2mc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/compress"
)

func TestLengthLimitedBasic(t *testing.T) {
	weights := []uint64{100, 50, 25, 12, 6, 3, 2, 1}
	lens, err := lengthLimitedCodeLengths(weights, 15)
	if err != nil {
		t.Fatal(err)
	}
	// Unlimited Huffman over this distribution gives lengths 1..7,7; with a
	// generous limit the result must match.
	want := []uint8{1, 2, 3, 4, 5, 6, 7, 7}
	for i := range want {
		if lens[i] != want[i] {
			t.Errorf("lens[%d] = %d, want %d (all %v)", i, lens[i], want[i], lens)
			break
		}
	}
}

func TestLengthLimitedRespectLimit(t *testing.T) {
	// A steep distribution that unconstrained Huffman would code deeper
	// than 4 bits.
	weights := []uint64{1000, 500, 100, 20, 5, 2, 1, 1, 1, 1}
	lens, err := lengthLimitedCodeLengths(weights, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range lens {
		if l < 1 || l > 4 {
			t.Errorf("lens[%d] = %d outside [1,4]", i, l)
		}
	}
	assertKraft(t, lens, 4)
}

func TestLengthLimitedTooManySymbols(t *testing.T) {
	weights := make([]uint64, 20)
	if _, err := lengthLimitedCodeLengths(weights, 4); err == nil {
		t.Error("20 symbols cannot fit in 4-bit codes; expected error")
	}
}

func TestLengthLimitedSingleSymbol(t *testing.T) {
	lens, err := lengthLimitedCodeLengths([]uint64{42}, 15)
	if err != nil || len(lens) != 1 || lens[0] != 1 {
		t.Errorf("single symbol: lens=%v err=%v", lens, err)
	}
}

func assertKraft(t *testing.T, lens []uint8, maxLen int) {
	t.Helper()
	sum := uint64(0)
	for _, l := range lens {
		if l == 0 || int(l) > maxLen {
			t.Fatalf("invalid length %d", l)
		}
		sum += uint64(1) << uint(maxLen-int(l))
	}
	if sum > 1<<uint(maxLen) {
		t.Fatalf("Kraft violated: %d > %d", sum, uint64(1)<<uint(maxLen))
	}
}

func TestLengthLimitedKraftProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, limRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%200 + 2
		lim := int(limRaw)%8 + 8 // 8..15
		weights := make([]uint64, n)
		for i := range weights {
			weights[i] = uint64(rng.Intn(10000))
		}
		lens, err := lengthLimitedCodeLengths(weights, lim)
		if err != nil {
			return false
		}
		sum := uint64(0)
		for _, l := range lens {
			if l == 0 || int(l) > lim {
				return false
			}
			sum += uint64(1) << uint(lim-int(l))
		}
		return sum <= 1<<uint(lim)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLengthLimitedMonotone(t *testing.T) {
	// Higher weight must never get a longer code than a lower weight.
	rng := rand.New(rand.NewSource(11))
	weights := make([]uint64, 64)
	for i := range weights {
		weights[i] = uint64(rng.Intn(100000) + 1)
	}
	lens, err := lengthLimitedCodeLengths(weights, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := range weights {
		for j := range weights {
			if weights[i] > weights[j] && lens[i] > lens[j] {
				t.Fatalf("weight %d (len %d) > weight %d (len %d) but longer code",
					weights[i], lens[i], weights[j], lens[j])
			}
		}
	}
}

func TestCanonicalDecodeRoundTrip(t *testing.T) {
	weights := []uint64{50, 30, 10, 5, 3, 1, 1}
	lens, err := lengthLimitedCodeLengths(weights, 10)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newCanonical(lens, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Encode a sequence of items and decode it back.
	rng := rand.New(rand.NewSource(12))
	seq := make([]int32, 500)
	w := compress.NewBitWriter(4096)
	for i := range seq {
		seq[i] = int32(rng.Intn(len(weights)))
		w.WriteBits(uint64(c.codes[seq[i]]), int(c.lens[seq[i]]))
	}
	r := compress.NewBitReader(w.Bytes())
	ref := newRefDecoder(c)
	for i, want := range seq {
		got, err := ref.decode(r)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("decode %d: got item %d, want %d", i, got, want)
		}
	}
}

func TestCanonicalPrefixFree(t *testing.T) {
	weights := []uint64{100, 60, 30, 20, 10, 5, 2, 1, 1, 1, 1}
	lens, err := lengthLimitedCodeLengths(weights, 8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newCanonical(lens, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range lens {
		for j := range lens {
			if i == j {
				continue
			}
			li, lj := int(lens[i]), int(lens[j])
			if li > lj {
				continue
			}
			// code i must not be a prefix of code j.
			if c.codes[j]>>uint(lj-li) == c.codes[i] {
				t.Fatalf("code %d (%0*b) is a prefix of code %d (%0*b)",
					i, li, c.codes[i], j, lj, c.codes[j])
			}
		}
	}
}

func TestCanonicalRejectsKraftViolation(t *testing.T) {
	// Three codes of length 1 cannot coexist.
	if _, err := newCanonical([]uint8{1, 1, 1}, 4); err == nil {
		t.Error("expected Kraft violation error")
	}
}

// BenchmarkTableBuild measures full table construction from trained
// statistics: boundary package-merge code lengths (the iterative tree walk),
// canonical code assignment, and the decode-LUT fill.
func BenchmarkTableBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(51))
	tr := NewTrainer()
	for i := 0; i < 400; i++ {
		if i%4 == 0 {
			blk := make([]byte, compress.BlockSize)
			rng.Read(blk)
			tr.Sample(blk)
			continue
		}
		tr.Sample(smoothFloatBlock(rng))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Build(0, 0); err != nil {
			b.Fatal(err)
		}
	}
}
