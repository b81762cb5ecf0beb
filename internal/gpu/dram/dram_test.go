package dram

import (
	"math"
	"testing"

	"repro/internal/gpu/events"
)

// Test harness op codes (events.KindTest): the channel's drain event and a
// request completion share the one lane.
const (
	opDrain uint8 = iota + 1
	opDone
)

// harness runs a channel standalone on a one-lane engine and records every
// request completion: its tag (the completion event's A) and time, in
// dispatch order.
type harness struct {
	ch    *Channel
	eng   *events.Engine
	tags  []uint32
	times []float64
}

func newChan(t *testing.T, cfg Config) *harness {
	t.Helper()
	h := &harness{eng: events.NewEngine(1, 0)}
	lane := h.eng.Lane(0)
	lane.SetHandler(events.KindTest, h)
	ch, err := NewChannel(cfg, lane, events.Event{Kind: events.KindTest, Op: opDrain})
	if err != nil {
		t.Fatal(err)
	}
	h.ch = ch
	return h
}

func (h *harness) HandleEvent(now float64, ev events.Event) {
	switch ev.Op {
	case opDrain:
		h.ch.DrainStep()
	case opDone:
		h.tags = append(h.tags, ev.A)
		h.times = append(h.times, now)
	}
}

// read submits a request whose completion is recorded under tag.
func (h *harness) read(addr uint64, bursts int, tag uint32) {
	h.ch.EnqueueEvent(addr, bursts, false, events.Event{Kind: events.KindTest, Op: opDone, A: tag})
}

// post submits a request with no completion; meta selects metadata
// accounting.
func (h *harness) post(addr uint64, bursts int, meta bool) {
	h.ch.EnqueueEvent(addr, bursts, meta, events.Event{})
}

func (h *harness) run() { h.eng.Run(1) }

// last returns the time of the latest completion.
func (h *harness) last() float64 { return h.times[len(h.times)-1] }

func TestPeakBandwidthMatchesTableII(t *testing.T) {
	cfg := DefaultConfig()
	// 12 × 32-bit channels at 1002 MHz command clock, 32 B per 2-cycle
	// burst ⇒ 192.4 GB/s aggregate (paper Table II).
	agg := 12 * cfg.PeakBandwidthGBs(32)
	if math.Abs(agg-192.4) > 0.5 {
		t.Errorf("aggregate peak bandwidth = %.1f GB/s, want ≈192.4", agg)
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	h := newChan(t, DefaultConfig())
	h.read(0, 4, 0)
	h.run()
	h.read(128, 4, 1) // same row
	h.run()
	t1, t2 := h.times[0], h.times[1]
	if d2 := t2 - t1; d2 >= t1 {
		t.Errorf("row hit (%.1f ns) not faster than cold access (%.1f ns)", d2, t1)
	}
	st := h.ch.Stats()
	if st.RowHits != 1 || st.Activations != 1 {
		t.Errorf("stats %+v, want 1 row hit + 1 activation", st)
	}
}

func TestFRFCFSPrefersRowHits(t *testing.T) {
	// A(row0), B(row1 same bank), C(row0) arriving together: FR-FCFS serves
	// A, C (hits after A opens row0), then B — one row hit, two misses.
	h := newChan(t, DefaultConfig())
	rowStride := uint64(DefaultConfig().RowBytes * DefaultConfig().Banks)
	const a, b, c = 0, 1, 2
	h.read(0, 2, a)
	h.read(rowStride, 2, b)
	h.read(64, 2, c)
	h.run()
	if got := h.tags; len(got) != 3 || got[0] != a || got[1] != c || got[2] != b {
		t.Errorf("service order = %v, want [A C B] = [0 2 1]", got)
	}
	st := h.ch.Stats()
	if st.RowHits != 1 || st.RowMisses != 2 {
		t.Errorf("stats %+v, want 1 hit / 2 misses", st)
	}
}

func TestAgingCapsReordering(t *testing.T) {
	// With a tiny aging window the old row-1 request must not starve
	// behind a long row-0 hit stream.
	cfg := DefaultConfig()
	cfg.AgingNs = 30
	h := newChan(t, cfg)
	rowStride := uint64(cfg.RowBytes * cfg.Banks)
	h.read(0, 4, 0)
	h.read(rowStride, 4, 1)
	for i := 2; i < 40; i++ {
		h.read(uint64(i%16)*128, 4, uint32(i))
	}
	h.run()
	bPos := 0
	for i, tag := range h.tags {
		if tag == 1 {
			bPos = i + 1
		}
	}
	if bPos == 0 || bPos > 20 {
		t.Errorf("aged request served %dth of 40; aging cap broken", bPos)
	}
}

func TestBurstCountScalesBusTime(t *testing.T) {
	// Open-loop row-hit streams: steady-state difference is bus occupancy,
	// so 4-burst requests take ≈4× the channel time of 1-burst requests.
	var t1, t4 float64
	for _, tc := range []struct {
		bursts int
		out    *float64
	}{{1, &t1}, {4, &t4}} {
		h := newChan(t, DefaultConfig())
		for i := 0; i < 1000; i++ {
			h.post(0, tc.bursts, false)
		}
		h.read(0, tc.bursts, 0)
		h.run()
		*tc.out = h.last()
	}
	r := t4 / t1
	if r < 3.0 || r > 4.5 {
		t.Errorf("4-burst stream took %.2f× the 1-burst stream, want ≈4", r)
	}
}

func TestThroughputApproachesPeak(t *testing.T) {
	// An open-loop row-hit stream must approach peak bandwidth.
	h := newChan(t, DefaultConfig())
	n := 10000
	for i := 0; i < n; i++ {
		h.read(uint64(i%4)*128, 4, uint32(i))
	}
	h.run()
	bytes := float64(n * 4 * 32)
	gbps := bytes / h.last()
	peak := DefaultConfig().PeakBandwidthGBs(32)
	if gbps < 0.9*peak {
		t.Errorf("sustained %.1f GB/s < 90%% of peak %.1f GB/s", gbps, peak)
	}
}

func TestStreamAcrossBanksApproachesPeak(t *testing.T) {
	// A linear stream (rows opened once, many hits per row) must also come
	// close to peak — the pattern coalesced GPU kernels produce.
	h := newChan(t, DefaultConfig())
	n := 8192
	for i := 0; i < n; i++ {
		h.read(uint64(i)*128, 4, uint32(i))
	}
	h.run()
	gbps := float64(n*4*32) / h.last()
	peak := DefaultConfig().PeakBandwidthGBs(32)
	if gbps < 0.8*peak {
		t.Errorf("streaming %.1f GB/s < 80%% of peak %.1f GB/s (row hits %d, misses %d)",
			gbps, peak, h.ch.Stats().RowHits, h.ch.Stats().RowMisses)
	}
}

func TestStatsBurstConservation(t *testing.T) {
	h := newChan(t, DefaultConfig())
	total := 0
	for i := 0; i < 500; i++ {
		b := i%4 + 1
		total += b
		h.post(uint64(i*128), b, false)
	}
	h.run()
	st := h.ch.Stats()
	if st.Bursts != total {
		t.Errorf("bursts %d ≠ issued %d", st.Bursts, total)
	}
	if st.Requests != 500 {
		t.Errorf("requests %d ≠ 500", st.Requests)
	}
	if st.RowHits+st.RowMisses != st.Requests {
		t.Errorf("hits %d + misses %d ≠ requests %d", st.RowHits, st.RowMisses, st.Requests)
	}
}

func TestCompletionMonotoneOnBus(t *testing.T) {
	// Completions of requests served back-to-back must be strictly
	// increasing (shared data bus).
	h := newChan(t, DefaultConfig())
	for i := 0; i < 100; i++ {
		h.read(uint64(i)*128, 2, uint32(i))
	}
	h.run()
	times := h.times
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Fatalf("completion %d (%.2f) not after %d (%.2f)", i, times[i], i-1, times[i-1])
		}
	}
}

func TestValidate(t *testing.T) {
	bad := DefaultConfig()
	bad.Banks = 0
	drain := events.Event{Kind: events.KindTest, Op: opDrain}
	if _, err := NewChannel(bad, events.NewEngine(1, 0).Lane(0), drain); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewChannel(DefaultConfig(), nil, drain); err == nil {
		t.Error("nil lane accepted")
	}
}

func TestAllRequestsCompleteUnderRandomLoad(t *testing.T) {
	// Starvation freedom: whatever the bank/row mix, every request's
	// completion fires exactly once and completions respect arrival bounds.
	cfg := DefaultConfig()
	h := newChan(t, cfg)
	const n = 5000
	seed := uint64(12345)
	next := func() uint64 { seed ^= seed << 13; seed ^= seed >> 7; seed ^= seed << 17; return seed }
	for i := 0; i < n; i++ {
		addr := (next() % (1 << 24)) &^ 127
		bursts := int(next()%4) + 1
		h.read(addr, bursts, uint32(i))
	}
	h.run()
	seen := make([]bool, n)
	for i, tag := range h.tags {
		if h.times[i] <= 0 {
			t.Errorf("non-positive completion %f", h.times[i])
		}
		if seen[tag] {
			t.Fatalf("request %d completed twice", tag)
		}
		seen[tag] = true
	}
	if len(h.tags) != n {
		t.Fatalf("%d of %d requests completed", len(h.tags), n)
	}
	if st := h.ch.Stats(); st.Requests != n {
		t.Fatalf("stats saw %d requests", st.Requests)
	}
}

func TestMetaBurstsAccountedSeparately(t *testing.T) {
	h := newChan(t, DefaultConfig())
	h.post(0, 4, false)
	h.post(1<<40, 1, true)
	h.post(128, 2, false)
	h.run()
	st := h.ch.Stats()
	if st.Bursts != 7 {
		t.Errorf("total bursts = %d, want 7", st.Bursts)
	}
	if st.MetaBursts != 1 {
		t.Errorf("meta bursts = %d, want 1", st.MetaBursts)
	}
}

// TestQueuesReleaseServedRequests is the regression test for queue memory
// retention: after a full drain the intrusive lists must be empty and every
// arena slot must be back on the freelist — otherwise served requests pile
// up for the whole trace.
func TestQueuesReleaseServedRequests(t *testing.T) {
	cfg := DefaultConfig()
	h := newChan(t, cfg)
	ch := h.ch
	// Several waves over many rows and banks, drained to completion.
	for wave := 0; wave < 8; wave++ {
		for i := 0; i < 4096; i++ {
			addr := uint64(wave*4096+i) * 128
			h.read(addr, i%4+1, uint32(i))
		}
		h.run()
	}
	if served := len(h.tags); served != 8*4096 {
		t.Fatalf("served %d of %d", served, 8*4096)
	}
	for b := range ch.banks {
		if n := len(ch.banks[b].closed); n != 0 {
			t.Errorf("bank %d retains %d closed-row lists after full drain", b, n)
		}
	}
	for b, lst := range ch.byBank {
		if lst.head != nilIdx || lst.tail != nilIdx {
			t.Errorf("byBank[%d] retains entries (head %d tail %d)", b, lst.head, lst.tail)
		}
	}
	for b := range ch.banks {
		if q := ch.banks[b].rowq; q.head != nilIdx || q.tail != nilIdx {
			t.Errorf("bank %d open-row list retains entries (head %d tail %d)", b, q.head, q.tail)
		}
	}
	if ch.fifoHead != nilIdx || ch.fifoTail != nilIdx {
		t.Errorf("fifo retains entries (head %d tail %d)", ch.fifoHead, ch.fifoTail)
	}
	if len(ch.free) != len(ch.reqs) {
		t.Errorf("freelist holds %d of %d arena slots after full drain",
			len(ch.free), len(ch.reqs))
	}
	// The arena grows to the peak backlog of one wave, never the total.
	if len(ch.reqs) > 4096 {
		t.Errorf("arena grew to %d slots; peak backlog per wave is 4096", len(ch.reqs))
	}
}

// TestResetReplaysIdentically drains a request stream, resets the channel,
// replays the identical stream, and requires identical statistics — the
// reuse contract the alloc-free simulator depends on.
func TestResetReplaysIdentically(t *testing.T) {
	cfg := DefaultConfig()
	h := newChan(t, cfg)
	run := func() Stats {
		for i := 0; i < 512; i++ {
			addr := uint64(i*37) * 160
			h.post(addr, i%4+1, false)
			if i%16 == 0 {
				h.post(1<<40+uint64(i)*32, 1, true)
			}
		}
		h.run()
		return h.ch.Stats()
	}
	first := run()
	h.ch.Reset()
	h.eng.Reset()
	second := run()
	if first != second {
		t.Fatalf("replay after Reset diverged:\nfirst  %+v\nsecond %+v", first, second)
	}
	if first.Requests == 0 {
		t.Fatal("no requests served")
	}
}
