// Package events is the deterministic discrete-event machinery shared by the
// timing simulator and the memory system.
//
// Engine is a set of Lanes, each a self-contained event queue that owns one
// component's state (one DRAM channel, or the SM/L2 front-end), exchanging
// timestamped cross-lane messages. Events are ordered by a (time, source
// lane, source sequence) key that is independent of how execution is
// scheduled. The engine drains the lanes in conservative time windows
// bounded by the minimum cross-lane latency, and cross-lane messages wait
// for the window's barrier, so every worker count replays identically,
// event for event, in the order of one worker stepping the lane with the
// smallest key.
//
// In a window the calling goroutine runs the coordinator lane (lane 0, the
// heaviest: about half of a simulator replay's events) first, while the
// helper goroutines, if any, and then the caller itself claim the window's
// remaining active lanes from a shared atomic cursor. With one worker there
// are no helpers and the caller drains every active lane itself. The
// caller opens a window by bumping a generation counter and waits at the
// barrier on an atomic count of helpers still draining; between windows a
// helper spins on the counter, yielding its P as it goes, so a window costs
// no goroutine wake-up. A window with one active lane is not opened: the
// caller runs that lane alone. A panic raised on any worker is recovered
// and re-raised on Run's caller after the window's barrier, so a broken
// model invariant surfaces as the caller's panic rather than killing the
// process from a helper.
//
// An event is a small value Event record dispatched to the Handler
// registered for its Kind on the lane it lands on. It is scheduled loose
// (AtEvent/SendEvent) or through an ordered Queue (AtQueue/SendQueue).
// Records live in per-lane pools with freelists; a lane's pool is touched
// only while that lane runs (single goroutine at a time), so the pools need
// no locking — the freelist ownership argument is the lane ownership
// argument.
//
// A lane orders its pending events with a hand-written 4-ary heap over value
// entries: no interface boxing, no per-push allocation. Most events a model
// schedules belong to a stream whose times never decrease (a bus's
// completions, one source's messages at a fixed latency), so a lane can also
// hold ordered queues: rings whose keys arrive in non-decreasing order. The
// heap then holds the loose events plus one entry per non-empty queue,
// carrying the queue's head key, instead of every pending event. A push onto
// a non-empty queue is O(1); a pop of a queue's head re-sifts the heap top
// with the queue's next key. A push whose key falls below its queue's tail
// goes onto the heap loose instead and is counted (Engine.Fallbacks), so
// every queue stays sorted, the heap minimum is still the lane minimum, and
// the dispatch order is exactly the all-loose order. The steady state
// performs no heap allocation once the per-lane pools and rings have warmed
// up.
package events

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Event is one scheduled event: a component kind, a component-private
// opcode, and compact arguments. It is a small value record (26 B of fields,
// 32 B with padding) — scheduling one copies it into a pooled slot, never
// onto the heap.
//
// Field meaning is owned by the handling component; by convention Addr
// carries a (global) memory address, Aux a packed completion (see
// PackCompletion) and A/B small integers such as warp indices, burst counts
// or channel numbers.
type Event struct {
	Addr uint64
	Aux  uint64
	A, B uint32
	Kind uint8
	Op   uint8
}

// Component kinds. A lane dispatches an event to the Handler registered
// for the event's Kind, so independent components (the simulator front-end,
// the memory-controller, a DRAM channel) can share a lane without seeing
// each other's events.
const (
	// KindNone marks "no event": a zero Event is never dispatched, which is
	// what lets an Event field double as an optional completion.
	KindNone uint8 = iota
	// KindSim is the simulator front-end (warp scheduling, L1/L2).
	KindSim
	// KindMC is the memory-controller system (front-end and channel sides).
	KindMC
	// KindDram is a DRAM channel's own drain scheduling.
	KindDram
	// KindTest is reserved for tests.
	KindTest
	numKinds
)

// Handler consumes events of one Kind on one lane. now is the event's
// dispatch time (the lane's Now).
type Handler interface {
	HandleEvent(now float64, ev Event)
}

// PackCompletion packs an event's (Kind, Op, A) triple into a uint64, so a
// completion event can ride inside another event's Aux field. Addr, Aux and
// B are not carried — completions are by convention identified by Kind/Op
// plus one small argument (a warp index, say).
func PackCompletion(ev Event) uint64 {
	return uint64(ev.Kind)<<40 | uint64(ev.Op)<<32 | uint64(ev.A)
}

// UnpackCompletion reverses PackCompletion.
func UnpackCompletion(aux uint64) Event {
	return Event{Kind: uint8(aux >> 40), Op: uint8(aux >> 32), A: uint32(aux)}
}

// rec is one pooled event record.
//
//slclint:pooled
type rec struct {
	ev Event
}

// heapEnt is a heap or queue entry: the ordering key plus the index of the
// record in the owning lane's pool. Keeping the key inline means heap
// sifting never touches the pool. q is 0 for a loose event and the queue's
// number for the entries of a queue, including the heap entry that stands
// for the queue's head.
//
// The (time, source lane, source sequence) key is packed into two words that
// compare as unsigned integers: tk holds the bits of the event time, which
// order like the time itself because event times are never negative (+0
// folds −0 into +0 first), and tie holds src<<seqBits | seq. Lane ids stay
// below 1<<srcBits and sequence numbers below 1<<seqBits (both enforced,
// see NewEngine and Lane.nextSeq), so the packing is exact and entLess is
// the three-field (t, src, seq) order.
type heapEnt struct {
	tk  uint64
	tie uint64
	idx int32
	q   int32
}

// Key packing widths: srcBits + seqBits = 63.
const (
	seqBits = 40
	srcBits = 23
)

// packKey builds the packed (tk, tie) key of an event.
func packKey(t float64, src int32, seq int64) (tk, tie uint64) {
	return math.Float64bits(t + 0), uint64(src)<<seqBits | uint64(seq)
}

// entTime returns the event time a packed key encodes.
func entTime(e heapEnt) float64 { return math.Float64frombits(e.tk) }

//slclint:allocfree
func entLess(a, b heapEnt) bool {
	return a.tk < b.tk || (a.tk == b.tk && a.tie < b.tie)
}

// heapPush, heapPop and siftDown maintain a 4-ary min-heap over value
// entries. The wider node cuts sift-down depth in half versus a binary heap
// and the value records avoid container/heap's per-operation interface
// boxing. Heap shape does not affect dispatch order: keys are unique
// (per-source sequence numbers), so the pop order is the total (t, src, seq)
// order regardless of arity.
//
//slclint:allocfree
func heapPush(h []heapEnt, e heapEnt) []heapEnt {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !entLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// heapPop removes the minimum, h[0].
//
//slclint:allocfree
func heapPop(h []heapEnt) []heapEnt {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	siftDown(h)
	return h
}

// siftDown restores the heap order after h[0] was replaced by a key no
// smaller than the one it held.
//
//slclint:allocfree
func siftDown(h []heapEnt) {
	n := len(h)
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			return
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entLess(h[j], h[best]) {
				best = j
			}
		}
		if !entLess(h[best], h[i]) {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// ring holds one ordered queue's entries in key order: a circular buffer
// whose length is zero or a power of two.
type ring struct {
	buf  []heapEnt
	head int
	n    int
}

// push appends e, which must not precede the ring's last entry.
//
//slclint:allocfree
func (r *ring) push(e heapEnt) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = e
	r.n++
}

// last returns the ring's last entry; the ring must not be empty.
func (r *ring) last() heapEnt { return r.buf[(r.head+r.n-1)&(len(r.buf)-1)] }

// grow doubles the ring, unwrapping its entries to the front of the new
// buffer. It is push's cold path: a ring grows only while its queue is
// deeper than at any earlier point, so a replay that repeats an earlier
// one's schedule never reaches it.
func (r *ring) grow() {
	buf := make([]heapEnt, max(16, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = buf, 0
}

// pool is a lane's record store: a slice arena plus a freelist of vacated slots. acquire/release are O(1) and allocation-free
// once the arena has grown to the schedule's peak depth.
type pool struct {
	recs []rec
	free []int32
}

//slclint:allocfree
func (p *pool) acquire() int32 {
	if n := len(p.free); n > 0 {
		idx := p.free[n-1]
		p.free = p.free[:n-1]
		checkAcquire(&p.recs[idx])
		return idx
	}
	p.recs = append(p.recs, rec{})
	return int32(len(p.recs) - 1)
}

// release vacates a slot. Under the eventsdebug build tag it writes a poison
// pattern that acquire verifies — a record must never be observed after
// release.
//
//slclint:allocfree
func (p *pool) release(idx int32) {
	p.recs[idx] = poisonRec
	p.free = append(p.free, idx)
}

func (p *pool) reset() {
	p.recs = p.recs[:0]
	p.free = p.free[:0]
}

// outMsg is a cross-lane message buffered during a window: the full
// packed ordering key, the target queue's number (0 for a loose event) and
// the event by value (it is copied into the target lane's pool at the
// barrier, never shared).
type outMsg struct {
	target *Lane
	tk     uint64
	tie    uint64
	ev     Event
	q      int32
}

// Queue is an ordered event queue registered on one lane (Lane.NewQueue).
// Events scheduled through it should arrive in non-decreasing (time, source
// lane, source sequence) order — a stream whose times never decrease, sent
// from one lane, has that order — and then cost O(1) to schedule. An event
// that arrives out of order is still dispatched exactly in key order, only
// through the lane's heap, and counts as a fallback (Engine.Fallbacks).
type Queue struct {
	lane *Lane
	id   int32
}

// Lane is one event shard of an Engine. A lane owns the state of the
// component running on it; its events execute strictly in key order on a
// single goroutine at a time, so lane-local state — including the lane's
// event pool and freelist — needs no locking. Lanes interact only through
// SendEvent and SendQueue.
type Lane struct {
	id  int32
	eng *Engine
	h   []heapEnt
	// queues holds the lane's ordered queues by number. Number 0 marks a
	// loose event, so queues[0] is never used.
	queues    []ring
	pool      pool
	handlers  [numKinds]Handler
	now       float64
	genSeq    int64
	executed  int64
	fallbacks int64
	outbox    []outMsg
}

// Now returns the lane's local simulation time.
func (l *Lane) Now() float64 { return l.now }

// SetHandler registers the Handler receiving events of the given kind
// dispatched on this lane. Handlers survive Engine.Reset.
func (l *Lane) SetHandler(kind uint8, h Handler) { l.handlers[kind] = h }

// NewQueue registers an ordered queue on the lane. Register queues while
// wiring a model, before the engine runs; they survive Engine.Reset.
func (l *Lane) NewQueue() Queue {
	l.queues = append(l.queues, ring{})
	return Queue{lane: l, id: int32(len(l.queues) - 1)}
}

// AtEvent schedules a loose event on this lane; times before Now are
// clamped to Now. It may be called only from the lane's own events, or
// between Engine.Run calls.
//
//slclint:allocfree
func (l *Lane) AtEvent(t float64, ev Event) { l.at(0, t, ev) }

// AtQueue schedules an event on this lane through q, which must be one of
// this lane's queues; times before Now are clamped to Now. It may be called
// from the same places as AtEvent.
//
//slclint:allocfree
func (l *Lane) AtQueue(q Queue, t float64, ev Event) {
	if q.lane != l {
		l.foreignQueue(q)
	}
	l.at(q.id, t, ev)
}

// foreignQueue is AtQueue's cold panic: a queue of another lane is reached
// through SendQueue, which checks the lookahead.
func (l *Lane) foreignQueue(q Queue) {
	panic(fmt.Sprintf("events: AtQueue on lane %d with a queue of lane %d", l.id, q.lane.id))
}

// at is the local scheduling path of AtEvent and AtQueue; q is a queue
// number, or 0 for a loose event.
//
//slclint:allocfree
func (l *Lane) at(q int32, t float64, ev Event) {
	if t < l.now {
		t = l.now
	}
	tk, tie := packKey(t, l.id, l.nextSeq())
	l.enqueue(q, tk, tie, ev)
}

// enqueue is the one path by which an event enters a lane's schedule,
// whether it is loose or queued, local or delivered from another lane. The
// record goes into the pool; the entry goes onto queue q unless its key
// precedes the queue's last entry, and onto the heap when it is loose
// (q == 0), when it is a fallback from its queue, or when it becomes the
// head of an empty queue.
//
//slclint:allocfree
func (l *Lane) enqueue(q int32, tk, tie uint64, ev Event) {
	idx := l.pool.acquire()
	l.pool.recs[idx] = rec{ev: ev}
	e := heapEnt{tk: tk, tie: tie, idx: idx}
	if q != 0 {
		r := &l.queues[q]
		switch {
		case r.n == 0: // the new head stands for the queue on the heap
			e.q = q
			r.push(e)
		case !entLess(e, r.last()):
			e.q = q
			r.push(e)
			return
		default:
			l.fallbacks++
		}
	}
	l.h = heapPush(l.h, e)
}

// nextSeq advances and returns the lane's sequence number, which must fit
// the packed key's seqBits.
//
//slclint:allocfree
func (l *Lane) nextSeq() int64 {
	l.genSeq++
	if l.genSeq >= 1<<seqBits {
		l.seqOverflow()
	}
	return l.genSeq
}

// seqOverflow is nextSeq's cold panic: wrapping the sequence would silently
// reorder same-time events.
func (l *Lane) seqOverflow() {
	panic(fmt.Sprintf("events: lane %d scheduled %d events since the last Reset, beyond the key's %d-bit sequence",
		l.id, l.genSeq, seqBits))
}

// checkSend validates a cross-lane send time against the engine's lookahead,
// which is what lets Run drain lanes concurrently inside a
// time window without ever delivering a message into a lane's past.
func (l *Lane) checkSend(to *Lane, t float64) {
	if t < l.now+l.eng.lookahead {
		panic(fmt.Sprintf("events: lookahead violation: lane %d at %g sends to lane %d at %g (lookahead %g)",
			l.id, l.now, to.id, t, l.eng.lookahead))
	}
}

// SendEvent schedules a loose event on the target lane at time t, from an
// event executing on this lane. Cross-lane sends must respect the engine's
// lookahead: t must be at least the sending lane's Now plus the lookahead.
// Sending to the own lane is a plain AtEvent with no latency constraint.
// During Run the message is buffered in the outbox for delivery at the
// window's barrier; between Runs it goes straight into the target's
// schedule (safe: no lane runs then).
//
//slclint:allocfree
func (l *Lane) SendEvent(to *Lane, t float64, ev Event) { l.send(to, 0, t, ev) }

// SendQueue is SendEvent through queue q, on the lane q is registered on;
// the barrier of a window delivers the message into q.
//
//slclint:allocfree
func (l *Lane) SendQueue(q Queue, t float64, ev Event) { l.send(q.lane, q.id, t, ev) }

// send is the path of SendEvent and SendQueue; q is the number of a queue
// of lane to, or 0 for a loose event.
//
//slclint:allocfree
func (l *Lane) send(to *Lane, q int32, t float64, ev Event) {
	if to == l {
		l.at(q, t, ev)
		return
	}
	l.checkSend(to, t)
	tk, tie := packKey(t, l.id, l.nextSeq())
	if l.eng.parallel {
		l.outbox = append(l.outbox, outMsg{target: to, tk: tk, tie: tie, ev: ev, q: q})
		return
	}
	to.enqueue(q, tk, tie, ev)
}

// headTime returns the lane's earliest pending event time, or +Inf.
func (l *Lane) headTime() float64 {
	if len(l.h) == 0 {
		return math.Inf(1)
	}
	return entTime(l.h[0])
}

// step pops and dispatches the lane's earliest event.
//
//slclint:allocfree
func (l *Lane) step() {
	ent := l.h[0]
	if ent.q == 0 {
		l.h = heapPop(l.h)
	} else if q := &l.queues[ent.q]; q.n > 1 {
		// The queue's next entry takes over its heap slot.
		q.head = (q.head + 1) & (len(q.buf) - 1)
		q.n--
		l.h[0] = q.buf[q.head]
		siftDown(l.h)
	} else {
		q.n = 0
		l.h = heapPop(l.h)
	}
	r := l.pool.recs[ent.idx]
	l.pool.release(ent.idx)
	l.now = entTime(ent)
	l.executed++
	checkDispatch(&r)
	h := l.handlers[r.ev.Kind]
	if h == nil {
		panic(fmt.Sprintf("events: lane %d: no handler for kind %d (op %d)", l.id, r.ev.Kind, r.ev.Op)) //slclint:allow allocfree cold panic on a wiring bug, unreachable in a correct model
	}
	h.HandleEvent(l.now, r.ev)
}

// runWindow executes the lane's events with time strictly below horizon.
// Locally scheduled events that land inside the window are executed too;
// cross-lane sends are buffered in the outbox for delivery at the barrier.
//
//slclint:allocfree
func (l *Lane) runWindow(horizon float64) {
	for len(l.h) > 0 && entTime(l.h[0]) < horizon {
		l.step()
	}
}

// reset returns the lane to its pre-run state, keeping handlers, queues and
// every backing array (heap, rings, pool, freelist, outbox) so a subsequent
// replay of the same schedule allocates nothing.
func (l *Lane) reset() {
	l.h = l.h[:0]
	for i := range l.queues {
		l.queues[i].head, l.queues[i].n = 0, 0
	}
	l.pool.reset()
	for i := range l.outbox {
		l.outbox[i] = outMsg{}
	}
	l.outbox = l.outbox[:0]
	l.now = 0
	l.genSeq = 0
	l.executed = 0
	l.fallbacks = 0
}

// Engine is a set of lanes sharing a simulated clock, drained by Run in
// conservative time windows.
type Engine struct {
	lanes     []*Lane
	lookahead float64
	// parallel is set while Run drains: a cross-lane send then waits in its
	// lane's outbox for the window's barrier.
	parallel bool
	// win and active are Run's window and active-lane list, kept across
	// Runs so that a steady-state replay allocates nothing.
	win    window
	active []*Lane
}

// NewEngine builds an engine with n lanes. lookahead is the minimum latency
// every cross-lane SendEvent must carry and the width of Run's windows; it
// must be positive when there is more than one lane. A one-lane engine
// sends nothing across lanes, so its lookahead is not used: Run drains its
// lane in one window. n must fit the packed event key's srcBits.
func NewEngine(n int, lookahead float64) *Engine {
	if n > 1<<srcBits {
		panic(fmt.Sprintf("events: %d lanes, beyond the key's %d-bit lane id", n, srcBits))
	}
	if n > 1 && !(lookahead > 0) {
		panic(fmt.Sprintf("events: %d lanes need a positive lookahead, got %g", n, lookahead))
	}
	e := &Engine{lanes: make([]*Lane, n), lookahead: lookahead, active: make([]*Lane, 0, n)}
	for i := range e.lanes {
		e.lanes[i] = &Lane{id: int32(i), eng: e, queues: make([]ring, 1)}
	}
	return e
}

// Lanes returns the number of lanes.
func (e *Engine) Lanes() int { return len(e.lanes) }

// Lane returns lane i.
func (e *Engine) Lane(i int) *Lane { return e.lanes[i] }

// Lookahead returns the minimum cross-lane message latency.
func (e *Engine) Lookahead() float64 { return e.lookahead }

// Now returns the engine's global time: the maximum lane-local time.
func (e *Engine) Now() float64 {
	var t float64
	for _, l := range e.lanes {
		if l.now > t {
			t = l.now
		}
	}
	return t
}

// Pending returns the total number of scheduled events across lanes.
func (e *Engine) Pending() int {
	n := 0
	for _, l := range e.lanes {
		n += len(l.h)
		for i := range l.queues {
			if q := &l.queues[i]; q.n > 0 {
				n += q.n - 1 // the head is on the heap
			}
		}
	}
	return n
}

// Executed returns the total number of events dispatched across lanes since
// the engine was built or last Reset. It is deterministic — every worker
// count executes the identical event sequence — but must only be read
// between Run calls.
func (e *Engine) Executed() int64 {
	var n int64
	for _, l := range e.lanes {
		n += l.executed
	}
	return n
}

// Fallbacks returns how many events scheduled through a queue since the
// engine was built or last Reset arrived below their queue's last entry and
// went onto the heap loose. Fallbacks never change the dispatch order, only
// its cost. The count is deterministic for a given schedule and the same
// at every worker count, because every worker count delivers cross-lane
// messages in the barrier's order.
func (e *Engine) Fallbacks() int64 {
	var n int64
	for _, l := range e.lanes {
		n += l.fallbacks
	}
	return n
}

// Reset rewinds the engine to time zero for a fresh replay: pending events
// are dropped, sequence and executed counters rewound, handlers and lane
// pool capacity kept. Replaying an identical schedule after Reset allocates
// nothing.
func (e *Engine) Reset() {
	for _, l := range e.lanes {
		l.reset()
	}
}

// spinYield is how often a worker waiting at the barrier, or a helper
// waiting for the next window, yields its P: a runtime.Gosched every
// spinYield loads lets any other runnable goroutine (the workload of a
// streamed replay, say) take it.
//
// Helpers never park. Replaying SRAD1 × TSLC-OPT at 16 B MAG with two
// workers on a 2-vCPU Xeon opens 5 712 windows of ≈ 70 µs; a helper waits a
// median of ≈ 6 µs for the next one and 99.7 % of its waits end within
// 131 µs, while waking a parked goroutine costs tens of µs. A variant that
// parked after 2¹⁷ loads (≈ 0.4 ms) ran fig9-mag no faster than this one
// (10 alternated pairs, ops_per_s 1.93 against 1.90, within the runs'
// spread) and the window-barrier race tests no faster either (169 s against
// 163 s at -cpu 1,2,4). The price is that each helper keeps a P busy, when
// no other goroutine wants it, for the whole Run; that is why Run caps the
// workers at GOMAXPROCS.
const spinYield = 64

// window is the state one time window shares between the calling goroutine
// and the helper workers: the active lanes, the horizon they drain
// to, and the cursor the workers claim lanes from. Index 0 is never claimed
// from the cursor — the caller runs it first — so the coordinator lane, the
// heaviest when active, starts the moment the window opens instead of
// queueing behind the channel lanes.
//
// The caller opens a window by bumping gen; every helper drains each window
// once and counts itself out of pending, and the caller's barrier waits for
// pending to reach zero. Both sides wait by spinning, so a window costs no
// goroutine wake-up. The Engine keeps one window for all its Runs; gen keeps
// counting across them.
type window struct {
	lanes   []*Lane
	horizon float64
	next    atomic.Int32
	gen     atomic.Uint64
	pending atomic.Int32
	// quit, set before the final generation bump, stops the helpers.
	quit     atomic.Bool
	nhelpers int
	exited   sync.WaitGroup
	// panicked holds the first panic raised on any worker during the
	// window, re-raised on the caller after the barrier.
	mu       sync.Mutex
	panicked any
}

// start launches n helpers for one Run. Each starts from the generation
// current at launch: gen only grows across Runs, so a helper that started
// from an older one would take the previous Run's last window for a new one.
func (w *window) start(n int) {
	w.nhelpers = n
	w.quit.Store(false)
	w.panicked = nil
	w.exited.Add(n)
	seen := w.gen.Load()
	for range n {
		go w.help(seen)
	}
}

// help is a helper goroutine: it drains every window the caller opens after
// generation seen, until quit. It waits for the next window by spinning on
// gen, yielding every spinYield loads.
func (w *window) help(seen uint64) {
	defer w.exited.Done()
	for {
		for i := 1; w.gen.Load() == seen; i++ {
			if i%spinYield == 0 {
				runtime.Gosched()
			}
		}
		seen = w.gen.Load()
		if w.quit.Load() {
			return
		}
		w.drain(nil)
		w.pending.Add(-1)
	}
}

// open publishes a window to the helpers.
func (w *window) open(lanes []*Lane, horizon float64) {
	w.lanes, w.horizon = lanes, horizon
	w.next.Store(0)
	w.pending.Store(int32(w.nhelpers))
	w.gen.Add(1)
}

// barrier spins until every helper has drained the open window, yielding
// like a helper's spin so that a helper waiting for a P gets one.
func (w *window) barrier() {
	for i := 1; w.pending.Load() != 0; i++ {
		if i%spinYield == 0 {
			runtime.Gosched()
		}
	}
}

// stop ends the helpers after the last barrier and waits for them to exit.
func (w *window) stop() {
	w.quit.Store(true)
	w.gen.Add(1)
	w.exited.Wait()
}

// drain runs first (when non-nil), then lanes claimed from the shared cursor
// until none remain. A panic — a lookahead violation, a missing handler, a
// model invariant — is recorded instead of unwinding the worker, so it
// reaches Run's caller rather than killing the process from a helper
// goroutine.
func (w *window) drain(first *Lane) {
	defer func() {
		if v := recover(); v != nil {
			w.mu.Lock()
			if w.panicked == nil {
				w.panicked = v
			}
			w.mu.Unlock()
		}
	}()
	if first != nil {
		first.runWindow(w.horizon)
	}
	for i := int(w.next.Add(1)); i < len(w.lanes); i = int(w.next.Add(1)) {
		w.lanes[i].runWindow(w.horizon)
	}
}

// Run drains every lane in conservative time windows on workers
// goroutines: the caller and workers−1 helpers that live for the whole Run,
// at most one per lane and one per P (GOMAXPROCS): the helpers spin between
// windows, so more of them than Ps would only take turns. workers ≤ 1 means
// the caller alone, with no helper goroutine. Each window: find the global
// minimum pending time T, let every lane with events below T+lookahead
// drain that range, then deliver the buffered cross-lane messages and
// repeat. The lookahead, the minimum cross-lane latency that SendEvent
// enforces, puts every message at or beyond the window's horizon, so each
// lane executes its events in (t, src, seq) key order and the executed
// sequence — and therefore every lane-local state and statistic — is the
// same at every worker count. The calling goroutine runs the window's first
// active lane (lane 0, the coordinator, whenever it is active) and then
// joins the helpers in claiming the rest from the window's cursor.
func (e *Engine) Run(workers int) {
	w := &e.win
	e.parallel = true
	w.start(max(1, min(workers, len(e.lanes), runtime.GOMAXPROCS(0))) - 1)
	defer e.stop()

	span := e.lookahead
	if len(e.lanes) == 1 {
		span = math.Inf(1) // a lone lane waits for no message
	}
	for {
		T := math.Inf(1)
		for _, l := range e.lanes {
			if t := l.headTime(); t < T {
				T = t
			}
		}
		if math.IsInf(T, 1) {
			return
		}
		horizon := T + span
		active := e.active[:0]
		for _, l := range e.lanes {
			if l.headTime() < horizon {
				active = append(active, l)
			}
		}
		if len(active) == 1 {
			// A lone lane needs no helper, so the window is not opened:
			// helpers waiting for the next one need no wake-up for it.
			active[0].runWindow(horizon)
		} else {
			w.open(active, horizon)
			w.drain(active[0])
			w.barrier()
			if w.panicked != nil {
				panic(w.panicked)
			}
		}

		// Deliver buffered messages: the barrier is single-threaded, so
		// copying a record into the target lane's pool is race-free.
		for _, l := range e.lanes {
			for _, m := range l.outbox {
				if t := math.Float64frombits(m.tk); t < horizon {
					panic(fmt.Sprintf("events: message from lane %d to lane %d at %g lands inside window ending %g",
						l.id, m.target.id, t, horizon))
				}
				m.target.enqueue(m.q, m.tk, m.tie, m.ev)
			}
			for i := range l.outbox {
				l.outbox[i] = outMsg{}
			}
			l.outbox = l.outbox[:0]
		}
	}
}

// stop ends a Run, on return or panic: it stops the helpers and sends
// cross-lane messages straight to their target again, as between Runs.
func (e *Engine) stop() {
	e.win.stop()
	e.parallel = false
}
