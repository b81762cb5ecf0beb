// Package events is the deterministic discrete-event machinery shared by the
// timing simulator and the memory system.
//
// Engine is a set of Lanes, each a self-contained event queue that owns one
// component's state (one DRAM channel, or the SM/L2 front-end), exchanging
// timestamped cross-lane messages. Events are ordered by a (time, source
// lane, source sequence) key that is independent of how execution is
// scheduled, so the serial path (one worker draining all lanes in global key
// order) and the parallel path (conservative time windows bounded by the
// minimum cross-lane latency) replay identically, event for event.
//
// In a parallel window the calling goroutine runs the coordinator lane (lane
// 0, the heaviest: about half of a simulator replay's events) first, while
// helper goroutines — woken once per window — and then the caller itself
// claim the window's remaining active lanes from a shared atomic cursor. A
// panic raised on any of them is recovered and re-raised on Run's caller
// after the window's barrier, so a broken model invariant surfaces as the
// caller's panic rather than killing the process from a helper.
//
// An event is a small value Event record (AtEvent/SendEvent) dispatched to
// the Handler registered for its Kind on the lane it lands on. Records live
// in per-lane pools with freelists; a lane's pool is touched only while that
// lane runs (single goroutine at a time), so the pools need no locking — the
// freelist ownership argument is the lane ownership argument. Heaps are
// hand-written 4-ary heaps over value records: no interface boxing, no
// per-push allocation, so the steady state performs no heap allocation once
// the per-lane pools have warmed up.
package events

import (
	"fmt"
	"math"
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

// heapEnt is a heap entry: the ordering key plus the index of the record in
// the owning lane's pool. Keeping the key inline means heap sifting
// never touches the pool.
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

// heapPush / heapPop maintain a 4-ary min-heap over value entries. The wider
// node cuts sift-down depth in half versus a binary heap and the value
// records avoid container/heap's per-operation interface boxing. Heap shape
// does not affect dispatch order: keys are unique (per-source sequence
// numbers), so the pop order is the total (t, src, seq) order regardless of
// arity.
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

//slclint:allocfree
func heapPop(h []heapEnt) (heapEnt, []heapEnt) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
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
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	return top, h
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

// outMsg is a cross-lane message buffered during a parallel window: the full
// packed ordering key plus the event by value (it is copied into the target
// lane's pool at the barrier, never shared).
type outMsg struct {
	target *Lane
	tk     uint64
	tie    uint64
	ev     Event
}

// Lane is one event shard of an Engine. A lane owns the state of the
// component running on it; its events execute strictly in key order on a
// single goroutine at a time, so lane-local state — including the lane's
// event pool and freelist — needs no locking. Lanes interact only through
// SendEvent.
type Lane struct {
	id       int32
	eng      *Engine
	h        []heapEnt
	pool     pool
	handlers [numKinds]Handler
	now      float64
	genSeq   int64
	executed int64
	outbox   []outMsg
}

// Now returns the lane's local simulation time.
func (l *Lane) Now() float64 { return l.now }

// SetHandler registers the Handler receiving events of the given kind
// dispatched on this lane. Handlers survive Engine.Reset.
func (l *Lane) SetHandler(kind uint8, h Handler) { l.handlers[kind] = h }

// AtEvent schedules an event on this lane; times before Now are clamped to
// Now. It may be called only from the lane's own events, or between
// Engine.Run calls.
//
//slclint:allocfree
func (l *Lane) AtEvent(t float64, ev Event) {
	if t < l.now {
		t = l.now
	}
	idx := l.pool.acquire()
	l.pool.recs[idx] = rec{ev: ev}
	tk, tie := packKey(t, l.id, l.nextSeq())
	l.h = heapPush(l.h, heapEnt{tk: tk, tie: tie, idx: idx})
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
// which is what lets the parallel engine run lanes concurrently inside a
// time window without ever delivering a message into a lane's past.
func (l *Lane) checkSend(to *Lane, t float64) {
	if t < l.now+l.eng.lookahead {
		panic(fmt.Sprintf("events: lookahead violation: lane %d at %g sends to lane %d at %g (lookahead %g)",
			l.id, l.now, to.id, t, l.eng.lookahead))
	}
}

// SendEvent schedules an event on the target lane at time t, from an event
// executing on this lane. Cross-lane sends must respect the engine's
// lookahead: t must be at least the sending lane's Now plus the lookahead.
// Sending to the own lane is a plain AtEvent with no latency constraint.
// During a parallel window the message is buffered in the outbox for
// delivery at the barrier; in serial mode it goes straight into the
// target's pool and heap (safe: only one lane runs at a time).
//
//slclint:allocfree
func (l *Lane) SendEvent(to *Lane, t float64, ev Event) {
	if to == l {
		l.AtEvent(t, ev)
		return
	}
	l.checkSend(to, t)
	tk, tie := packKey(t, l.id, l.nextSeq())
	if l.eng.parallel {
		l.outbox = append(l.outbox, outMsg{target: to, tk: tk, tie: tie, ev: ev})
		return
	}
	idx := to.pool.acquire()
	to.pool.recs[idx] = rec{ev: ev}
	to.h = heapPush(to.h, heapEnt{tk: tk, tie: tie, idx: idx})
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
	var ent heapEnt
	ent, l.h = heapPop(l.h)
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

// reset returns the lane to its pre-run state, keeping handlers and every
// backing array (heap, pool, freelist, outbox) so a subsequent replay of the
// same schedule allocates nothing.
func (l *Lane) reset() {
	l.h = l.h[:0]
	l.pool.reset()
	for i := range l.outbox {
		l.outbox[i] = outMsg{}
	}
	l.outbox = l.outbox[:0]
	l.now = 0
	l.genSeq = 0
	l.executed = 0
}

// Engine is a set of lanes sharing a simulated clock. Run(1) drains the
// lanes serially in global key order — the reference serial engine. Run(n)
// for n > 1 drains them in conservative time windows: all lanes holding an
// event inside [T, T+lookahead) execute concurrently, where T is the global
// minimum pending time; the lookahead (the minimum cross-lane message
// latency, enforced by SendEvent) guarantees no message generated inside the
// window can land inside it, so the two modes replay bitwise-identically.
type Engine struct {
	lanes     []*Lane
	lookahead float64
	parallel  bool
}

// NewEngine builds an engine with n lanes. lookahead is the minimum latency
// every cross-lane SendEvent must carry; it must be positive for parallel
// runs (Run falls back to serial otherwise). n must fit the packed event
// key's srcBits.
func NewEngine(n int, lookahead float64) *Engine {
	if n > 1<<srcBits {
		panic(fmt.Sprintf("events: %d lanes, beyond the key's %d-bit lane id", n, srcBits))
	}
	e := &Engine{lanes: make([]*Lane, n), lookahead: lookahead}
	for i := range e.lanes {
		e.lanes[i] = &Lane{id: int32(i), eng: e}
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
	}
	return n
}

// Executed returns the total number of events dispatched across lanes since
// the engine was built or last Reset. It is deterministic — the serial and
// parallel modes execute the identical event sequence — but must only be
// read between Run calls.
func (e *Engine) Executed() int64 {
	var n int64
	for _, l := range e.lanes {
		n += l.executed
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

// Run drains every lane. workers ≤ 1 (or a non-positive lookahead) selects
// the serial engine; larger values fan the window's active lanes across that
// many goroutines. The executed event sequence — and therefore every
// lane-local state and statistic — is identical in both modes.
func (e *Engine) Run(workers int) {
	if workers <= 1 || e.lookahead <= 0 || len(e.lanes) == 1 {
		e.runSerial()
		return
	}
	e.runParallel(workers)
}

// runSerial executes events one at a time in global (t, src, seq) order.
func (e *Engine) runSerial() {
	for {
		var best *Lane
		for _, l := range e.lanes {
			if len(l.h) == 0 {
				continue
			}
			if best == nil || entLess(l.h[0], best.h[0]) {
				best = l
			}
		}
		if best == nil {
			return
		}
		best.step()
	}
}

// window is the state one parallel time window shares between the calling
// goroutine and the helper workers: the active lanes, the horizon they drain
// to, and the cursor the workers claim lanes from. Index 0 is never claimed
// from the cursor — the caller runs it first — so the coordinator lane, the
// heaviest when active, starts the moment the window opens instead of
// queueing behind the channel lanes.
type window struct {
	lanes   []*Lane
	horizon float64
	next    atomic.Int32
	// wake carries one token per helper woken for the current window; done
	// counts the woken helpers back in at the barrier.
	wake chan struct{}
	done sync.WaitGroup
	// panicked holds the first panic raised on any worker during the
	// window, re-raised on the caller after the barrier.
	mu       sync.Mutex
	panicked any
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

// runParallel executes conservative time windows on a persistent worker
// pool. Each window: find the global minimum pending time T, let every lane
// with events below T+lookahead drain that range concurrently, then deliver
// the buffered cross-lane messages (all provably at or beyond the horizon)
// and repeat. The calling goroutine runs the window's first active lane
// (lane 0, the coordinator, whenever it is active) and then joins the woken
// helpers in claiming the rest from the window's cursor.
func (e *Engine) runParallel(workers int) {
	e.parallel = true
	defer func() { e.parallel = false }()

	if workers > len(e.lanes) {
		workers = len(e.lanes)
	}
	w := &window{wake: make(chan struct{}, workers-1)}
	for i := 1; i < workers; i++ {
		go func() {
			for range w.wake {
				w.drain(nil)
				w.done.Done()
			}
		}()
	}
	defer close(w.wake)

	active := make([]*Lane, 0, len(e.lanes))
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
		horizon := T + e.lookahead
		active = active[:0]
		for _, l := range e.lanes {
			if l.headTime() < horizon {
				active = append(active, l)
			}
		}
		w.lanes, w.horizon = active, horizon
		w.next.Store(0)
		// Wake one helper per active lane beyond the caller's, at most one
		// per helper: each woken helper consumes exactly one token and
		// counts itself back in, so the buffer never fills.
		helpers := min(len(active)-1, workers-1)
		w.done.Add(helpers)
		for i := 0; i < helpers; i++ {
			w.wake <- struct{}{}
		}
		w.drain(active[0])
		w.done.Wait()
		if w.panicked != nil {
			panic(w.panicked)
		}

		// Deliver buffered messages: the barrier is single-threaded, so
		// copying a record into the target lane's pool is race-free.
		for _, l := range e.lanes {
			for _, m := range l.outbox {
				if t := math.Float64frombits(m.tk); t < horizon {
					panic(fmt.Sprintf("events: message from lane %d to lane %d at %g lands inside window ending %g",
						l.id, m.target.id, t, horizon))
				}
				idx := m.target.pool.acquire()
				m.target.pool.recs[idx] = rec{ev: m.ev}
				m.target.h = heapPush(m.target.h, heapEnt{tk: m.tk, tie: m.tie, idx: idx})
			}
			for i := range l.outbox {
				l.outbox[i] = outMsg{}
			}
			l.outbox = l.outbox[:0]
		}
	}
}
