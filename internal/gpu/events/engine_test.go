package events

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// pingPong op codes (KindTest).
const (
	opRound uint8 = iota + 1
	opReq
	opWork
	opReply
)

// pingPongLane is one lane's handler of the pingPong workload: lane 0
// broadcasts requests to every other lane with the minimum latency, each
// lane does local follow-up work and replies, and lane 0 chains the next
// round off the replies. Every lane appends (time, label) to its own log.
type pingPongLane struct {
	e       *Engine
	id      int
	rounds  uint32
	log     *[]string
	replies int // lane 0 only: replies received this round
}

func (p *pingPongLane) HandleEvent(now float64, ev Event) {
	l, coord, la, r := p.e.Lane(p.id), p.e.Lane(0), p.e.Lookahead(), ev.A
	switch ev.Op {
	case opRound:
		if r >= p.rounds {
			return
		}
		*p.log = append(*p.log, fmt.Sprintf("round %d @%g", r, now))
		p.replies = 0
		for i := 1; i < p.e.Lanes(); i++ {
			coord.SendEvent(p.e.Lane(i), now+la, Event{Kind: KindTest, Op: opReq, A: r})
		}
	case opReq:
		*p.log = append(*p.log, fmt.Sprintf("req %d @%g", r, now))
		// Local follow-up inside the lane, below the lookahead.
		l.AtEvent(now+la/4, Event{Kind: KindTest, Op: opWork, A: r})
	case opWork:
		*p.log = append(*p.log, fmt.Sprintf("work %d @%g", r, now))
		l.SendEvent(coord, now+la, Event{Kind: KindTest, Op: opReply, A: r, B: uint32(p.id)})
	case opReply:
		*p.log = append(*p.log, fmt.Sprintf("reply %d/%d @%g", r, ev.B, now))
		p.replies++
		if p.replies == p.e.Lanes()-1 {
			coord.AtEvent(now, Event{Kind: KindTest, Op: opRound, A: r + 1})
		}
	}
}

// pingPong wires the pingPong workload onto every lane of e and returns
// the lanes' handlers; a round starts with an opRound event on lane 0.
func pingPong(e *Engine, rounds int, logs [][]string) []*pingPongLane {
	lanes := make([]*pingPongLane, e.Lanes())
	for i := range lanes {
		lanes[i] = &pingPongLane{e: e, id: i, rounds: uint32(rounds), log: &logs[i]}
		e.Lane(i).SetHandler(KindTest, lanes[i])
	}
	return lanes
}

func runPingPong(lanes, rounds int, drain func(*Engine)) [][]string {
	e := NewEngine(lanes, 10)
	logs := make([][]string, lanes)
	pingPong(e, rounds, logs)
	e.Lane(0).AtEvent(0, Event{Kind: KindTest, Op: opRound})
	drain(e)
	return logs
}

// runKeyOrder is the reference every worker count of Run is compared
// against: it drains e one event at a time, always stepping the lane whose
// next event has the smallest (t, src, seq) key. The engine's parallel flag
// stays off, so a cross-lane send goes straight into its target's schedule,
// which is safe because only one lane runs at a time.
func runKeyOrder(e *Engine) {
	for {
		var best *Lane
		for _, l := range e.lanes {
			if len(l.h) > 0 && (best == nil || entLess(l.h[0], best.h[0])) {
				best = l
			}
		}
		if best == nil {
			return
		}
		best.step()
	}
}

// withWorkers returns a drain that runs the engine at the given worker
// count.
func withWorkers(n int) func(*Engine) {
	return func(e *Engine) { e.Run(n) }
}

func TestEngineSerialParallelIdentical(t *testing.T) {
	for _, lanes := range []int{2, 4, 13} {
		want := runPingPong(lanes, 20, runKeyOrder)
		for _, workers := range []int{1, 2, 3, lanes} {
			got := runPingPong(lanes, 20, withWorkers(workers))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("lanes=%d workers=%d: logs diverge from key order\nkey order: %v\nRun:       %v",
					lanes, workers, want, got)
			}
		}
	}
}

func TestEngineKeyOrdering(t *testing.T) {
	// Ties at the same time resolve by (source lane, source sequence):
	// lane 0's sends run before lane 1's, and each source's in order.
	e := NewEngine(3, 1)
	var got []string
	target := e.Lane(2)
	target.SetHandler(KindTest, handlerFunc(func(now float64, ev Event) {
		got = append(got, fmt.Sprintf("%d.%d", ev.A, ev.B))
	}))
	for _, src := range []int{1, 0} { // schedule lane 1's first
		l := e.Lane(src)
		l.SetHandler(KindTest, handlerFunc(func(now float64, ev Event) {
			for k := 0; k < 3; k++ {
				l.SendEvent(target, 5, Event{Kind: KindTest, A: uint32(src), B: uint32(k)})
			}
		}))
		l.AtEvent(0, Event{Kind: KindTest})
	}
	e.Run(1)
	want := []string{"0.0", "0.1", "0.2", "1.0", "1.1", "1.2"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tie order = %v, want %v", got, want)
	}
}

func TestEngineLookaheadViolationPanics(t *testing.T) {
	e := NewEngine(2, 10)
	e.Lane(0).SetHandler(KindTest, handlerFunc(func(now float64, ev Event) {
		defer func() {
			if recover() == nil {
				t.Error("short cross-lane send did not panic")
			}
		}()
		e.Lane(0).SendEvent(e.Lane(1), 5, ev)
	}))
	e.Lane(0).AtEvent(0, Event{Kind: KindTest})
	e.Run(1)
}

func TestEngineSameLaneSendHasNoLatencyFloor(t *testing.T) {
	e := NewEngine(2, 10)
	ran := false
	e.Lane(0).SetHandler(KindTest, handlerFunc(func(now float64, ev Event) {
		if ev.Op == 0 {
			e.Lane(0).SendEvent(e.Lane(0), 1, Event{Kind: KindTest, Op: 1})
			return
		}
		ran = true
	}))
	e.Lane(0).AtEvent(0, Event{Kind: KindTest})
	e.Run(1)
	if !ran {
		t.Error("same-lane send did not run")
	}
}

// TestEngineReusableAcrossRuns: kernels run back to back, so one engine
// must drain, accept new events at later times, and drain again, while the
// worker count changes from one Run to the next. The window and its
// generation counter live on the Engine across Runs; a helper that took the
// previous Run's last window for a new one would drain it again and hang
// the barrier. Every Run's dispatch order must be the key order's, and
// every helper must be gone after each Run.
func TestEngineReusableAcrossRuns(t *testing.T) {
	const roundsPerRun = 3
	sequence := []int{1, 4, 1, 2, 2, 3, 1}
	replay := func(drain func(e *Engine, run int)) [][]string {
		e := NewEngine(4, 10)
		logs := make([][]string, e.Lanes())
		lanes := pingPong(e, 0, logs)
		last := -1.0
		for run := range sequence {
			for _, p := range lanes {
				p.rounds = uint32(roundsPerRun * (run + 1))
			}
			e.Lane(0).AtEvent(e.Now(), Event{Kind: KindTest, Op: opRound, A: uint32(roundsPerRun * run)})
			drain(e, run)
			if e.Now() <= last {
				t.Errorf("run %d: time did not advance across runs", run)
			}
			if e.Pending() != 0 {
				t.Errorf("run %d: %d events left pending", run, e.Pending())
			}
			last = e.Now()
		}
		return logs
	}
	want := replay(func(e *Engine, _ int) { runKeyOrder(e) })
	before := runtime.NumGoroutine()
	got := replay(func(e *Engine, run int) {
		e.Run(sequence[run])
		waitGoroutines(t, before)
	})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workers %v: logs diverge from key order\nkey order: %v\nRun:       %v", sequence, want, got)
	}
}

func TestEngineClampsPastTimes(t *testing.T) {
	e, l := oneLane()
	var when float64 = -1
	l.SetHandler(KindTest, handlerFunc(func(now float64, ev Event) {
		if ev.Op == 0 {
			l.AtEvent(5, Event{Kind: KindTest, Op: 1}) // in the past → clamps to now
			return
		}
		when = now
	}))
	l.AtEvent(10, Event{Kind: KindTest})
	e.Run(1)
	if when != 10 {
		t.Errorf("past event ran at %v, want 10", when)
	}
}

// TestEngineParallelPanicReachesCaller: a handler panicking on a channel
// lane — which Run may run on a helper goroutine — must unwind Run's caller
// after the window's barrier instead of killing the process, and must leave
// no helper goroutine behind. After a Reset the engine runs again without
// re-raising the old panic.
func TestEngineParallelPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		before := runtime.NumGoroutine()
		e := NewEngine(4, 10)
		for i := 1; i < e.Lanes(); i++ {
			e.Lane(i).SetHandler(KindTest, handlerFunc(func(now float64, ev Event) {
				if ev.A == 2 {
					panic("boom on lane 2")
				}
			}))
		}
		coord := e.Lane(0)
		coord.SetHandler(KindTest, handlerFunc(func(now float64, ev Event) {
			for i := 1; i < e.Lanes(); i++ {
				coord.SendEvent(e.Lane(i), now+10, Event{Kind: KindTest, A: uint32(i)})
			}
		}))
		coord.AtEvent(0, Event{Kind: KindTest})
		got := func() (v any) {
			defer func() { v = recover() }()
			e.Run(workers)
			return nil
		}()
		if got != "boom on lane 2" {
			t.Errorf("workers=%d: Run recovered %v, want the lane's panic", workers, got)
		}
		waitGoroutines(t, before)

		e.Reset()
		e.Lane(1).AtEvent(0, Event{Kind: KindTest, A: 1})
		e.Lane(3).AtEvent(0, Event{Kind: KindTest, A: 3})
		e.Run(workers)
		waitGoroutines(t, before)
	}
}

// waitGoroutines waits for the goroutine count to fall back to baseline:
// exiting goroutines finish asynchronously after the call that stopped them.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: a helper leaked", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// stressHandler reschedules pseudo-randomly: each dispatched event fans out
// to 0–2 follow-ups on pseudo-random lanes until the lane's budget is
// spent. The budget is lane-local (handlers run concurrently at more than
// one worker) and each lane's dispatch sequence is deterministic, so the
// executed count must match on any worker count.
type stressHandler struct {
	eng    *Engine
	lane   *Lane
	budget int
}

func (h *stressHandler) HandleEvent(now float64, ev Event) {
	for fan := ev.A % 3; fan > 0 && h.budget > 0; fan-- {
		h.budget--
		next := Event{Kind: KindTest, Op: ev.Op + 1, A: ev.A*1664525 + 1013904223}
		target := h.eng.Lane(int(next.A>>8) % h.eng.Lanes())
		if target == h.lane {
			h.lane.AtEvent(now+float64(next.A%5), next)
		} else {
			h.lane.SendEvent(target, now+1+float64(next.A%5), next)
		}
	}
}

// TestEventPoolReuseStress hammers acquire/release across lanes, replay
// resets and worker counts, against the key-order reference. Under the
// eventsdebug build tag (CI runs this test with -tags eventsdebug -race)
// every release poisons the record and every acquire/dispatch verifies it,
// so a freelist double-release or a use-after-release anywhere in the
// machinery panics here.
func TestEventPoolReuseStress(t *testing.T) {
	const lanes = 5
	run := func(drain func(*Engine)) int64 {
		eng := NewEngine(lanes, 1)
		handlers := make([]*stressHandler, lanes)
		for i := 0; i < lanes; i++ {
			handlers[i] = &stressHandler{eng: eng, lane: eng.Lane(i)}
			eng.Lane(i).SetHandler(KindTest, handlers[i])
		}
		var total int64
		for replay := 0; replay < 3; replay++ {
			eng.Reset()
			for i := range handlers {
				handlers[i].budget = 4000
			}
			for i := 0; i < lanes; i++ {
				eng.Lane(i).AtEvent(float64(i%3), Event{Kind: KindTest, A: uint32(i)*2654435761 + 7})
			}
			drain(eng)
			total += eng.Executed()
		}
		return total
	}
	want := run(runKeyOrder)
	if want < 3*lanes {
		t.Fatalf("stress executed only %d events", want)
	}
	for _, workers := range []int{1, 3} {
		if got := run(withWorkers(workers)); got != want {
			t.Fatalf("stress at %d workers executed %d events, key order %d", workers, got, want)
		}
	}
}
