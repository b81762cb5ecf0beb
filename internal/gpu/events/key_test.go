package events

import (
	"math"
	"math/rand"
	"testing"
)

// tupleKey is the unpacked (time, source lane, source sequence) event key.
type tupleKey struct {
	t   float64
	src int32
	seq int64
}

// tupleLess is the reference three-field order the packed key must equal.
func tupleLess(a, b tupleKey) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

func packed(k tupleKey) heapEnt {
	tk, tie := packKey(k.t, k.src, k.seq)
	return heapEnt{tk: tk, tie: tie}
}

// TestEntLessMatchesTupleOrder compares the packed entLess with the
// three-field compare over every pair of a set of edge keys — zero and
// negative zero, equal and adjacent times, the largest sequence number and
// the smallest and largest lane ids — plus random keys built from the same
// values, so that ties on every field occur often.
func TestEntLessMatchesTupleOrder(t *testing.T) {
	const maxSeq = 1<<seqBits - 1
	const maxSrc = 1<<srcBits - 1
	times := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1,
		math.Nextafter(1, 2), math.Nextafter(1, 0), 1e9, math.Nextafter(1e9, 2e9),
		math.MaxFloat64, math.Inf(1)}
	srcs := []int32{0, 1, maxSrc - 1, maxSrc}
	seqs := []int64{0, 1, 2, maxSeq - 1, maxSeq}

	var keys []tupleKey
	for _, tm := range times {
		for _, src := range srcs {
			for _, seq := range seqs {
				keys = append(keys, tupleKey{tm, src, seq})
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		k := tupleKey{t: times[rng.Intn(len(times))], src: srcs[rng.Intn(len(srcs))], seq: seqs[rng.Intn(len(seqs))]}
		switch rng.Intn(3) {
		case 0:
			k.t = rng.Float64() * 1e4
		case 1:
			k.src = rng.Int31n(maxSrc + 1)
		case 2:
			k.seq = rng.Int63n(maxSeq + 1)
		}
		keys = append(keys, k)
	}
	for _, a := range keys {
		for _, b := range keys {
			if got, want := entLess(packed(a), packed(b)), tupleLess(a, b); got != want {
				t.Fatalf("entLess(%+v, %+v) = %v, tuple order says %v", a, b, got, want)
			}
		}
	}
	if e := packed(tupleKey{t: math.Copysign(0, -1)}); entTime(e) != 0 || math.Signbit(entTime(e)) {
		t.Errorf("−0 packs to time %g (sign bit %v), want +0", entTime(e), math.Signbit(entTime(e)))
	}
}

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestKeyOverflowPanics: the packed key never wraps silently. A lane whose
// sequence reaches 1<<seqBits panics on its next schedule, by AtEvent and by
// SendEvent alike, and an engine with more lanes than the key's lane id can
// hold is refused before it is built.
func TestKeyOverflowPanics(t *testing.T) {
	e := NewEngine(2, 1)
	l := e.Lane(0)
	l.genSeq = 1<<seqBits - 2
	l.AtEvent(0, Event{Kind: KindTest}) // the last sequence number that fits
	if l.genSeq != 1<<seqBits-1 {
		t.Fatalf("genSeq = %d, want %d", l.genSeq, int64(1<<seqBits-1))
	}
	mustPanic(t, "AtEvent past the sequence limit", func() { l.AtEvent(0, Event{Kind: KindTest}) })
	l.genSeq = 1<<seqBits - 1
	mustPanic(t, "SendEvent past the sequence limit", func() { l.SendEvent(e.Lane(1), 5, Event{Kind: KindTest}) })
	mustPanic(t, "NewEngine past the lane limit", func() { NewEngine(1<<srcBits+1, 1) })
}

// TestZeroLookaheadPanics: a window is lookahead wide, so an engine with
// more than one lane and no positive lookahead, whose windows would drain
// nothing, is refused before it is built. One lane needs none (oneLane).
func TestZeroLookaheadPanics(t *testing.T) {
	mustPanic(t, "NewEngine(2, 0)", func() { NewEngine(2, 0) })
	mustPanic(t, "NewEngine(3, -1)", func() { NewEngine(3, -1) })
	mustPanic(t, "NewEngine(2, NaN)", func() { NewEngine(2, math.NaN()) })
}
