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

// pingPong wires the pingPong workload onto every lane of e and seeds its
// first round.
func pingPong(e *Engine, rounds int, logs [][]string) {
	for i := 0; i < e.Lanes(); i++ {
		e.Lane(i).SetHandler(KindTest, &pingPongLane{e: e, id: i, rounds: uint32(rounds), log: &logs[i]})
	}
	e.Lane(0).AtEvent(0, Event{Kind: KindTest, Op: opRound})
}

func runPingPong(lanes, workers, rounds int) [][]string {
	e := NewEngine(lanes, 10)
	logs := make([][]string, lanes)
	pingPong(e, rounds, logs)
	e.Run(workers)
	return logs
}

func TestEngineSerialParallelIdentical(t *testing.T) {
	for _, lanes := range []int{2, 4, 13} {
		want := runPingPong(lanes, 1, 20)
		for _, workers := range []int{2, 3, lanes} {
			got := runPingPong(lanes, workers, 20)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("lanes=%d workers=%d: logs diverge from serial\nserial:   %v\nparallel: %v",
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

func TestEngineReusableAcrossRuns(t *testing.T) {
	// Kernels run back to back: the engine must drain, accept new events at
	// later times, and drain again — in both modes.
	for _, workers := range []int{1, 4} {
		e := NewEngine(4, 10)
		perLane := make([]int, e.Lanes()) // lane-local counters: lanes must not share state
		coord := e.Lane(0)
		coord.SetHandler(KindTest, handlerFunc(func(now float64, ev Event) {
			for i := 1; i < e.Lanes(); i++ {
				coord.SendEvent(e.Lane(i), now+10, Event{Kind: KindTest, A: uint32(i)})
			}
		}))
		for i := 1; i < e.Lanes(); i++ {
			e.Lane(i).SetHandler(KindTest, handlerFunc(func(now float64, ev Event) { perLane[ev.A]++ }))
		}
		coord.AtEvent(0, Event{Kind: KindTest})
		e.Run(workers)
		first := e.Now()
		coord.AtEvent(first, Event{Kind: KindTest})
		e.Run(workers)
		total := 0
		for _, n := range perLane {
			total += n
		}
		if total != 6 {
			t.Errorf("workers=%d: ran %d cross-lane events, want 6", workers, total)
		}
		if e.Now() <= first {
			t.Errorf("workers=%d: time did not advance across runs", workers)
		}
		if e.Pending() != 0 {
			t.Errorf("workers=%d: %d events left pending", workers, e.Pending())
		}
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
// lane — which the parallel engine may run on a helper goroutine — must
// unwind Run's caller after the window's barrier instead of killing the
// process, and must leave no helper goroutine behind.
func TestEngineParallelPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{2, 4} {
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
// spent. The budget is lane-local (handlers run concurrently in parallel
// mode) and each lane's dispatch sequence is deterministic, so the executed
// count must match on any worker count.
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
// resets, and both engine modes. Under the eventsdebug build tag (CI runs
// this test with -tags eventsdebug -race) every release poisons the record
// and every acquire/dispatch verifies it, so a freelist double-release or a
// use-after-release anywhere in the machinery panics here.
func TestEventPoolReuseStress(t *testing.T) {
	const lanes = 5
	run := func(workers int) int64 {
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
			eng.Run(workers)
			total += eng.Executed()
		}
		return total
	}
	serial := run(1)
	if serial < 3*lanes {
		t.Fatalf("stress executed only %d events", serial)
	}
	if par := run(3); par != serial {
		t.Fatalf("parallel stress executed %d events, serial %d", par, serial)
	}
}
