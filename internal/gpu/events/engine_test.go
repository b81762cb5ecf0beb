package events

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// pingPong builds a deterministic multi-lane workload on an engine: lane 0
// broadcasts requests to every other lane with the minimum latency, each
// lane does local follow-up work and replies, and lane 0 chains the next
// round off the replies. Every lane appends (time, label) to its own log.
func pingPong(e *Engine, rounds int, logs [][]string) {
	coord := e.Lane(0)
	la := e.Lookahead()
	var round func(r int)
	round = func(r int) {
		if r >= rounds {
			return
		}
		logs[0] = append(logs[0], fmt.Sprintf("round %d @%g", r, coord.Now()))
		replies := 0
		for i := 1; i < e.Lanes(); i++ {
			l := e.Lane(i)
			i := i
			coord.Send(l, coord.Now()+la, func() {
				logs[i] = append(logs[i], fmt.Sprintf("req %d @%g", r, l.Now()))
				// Local follow-up inside the lane, below the lookahead.
				l.At(l.Now()+la/4, func() {
					logs[i] = append(logs[i], fmt.Sprintf("work %d @%g", r, l.Now()))
					l.Send(coord, l.Now()+la, func() {
						logs[0] = append(logs[0], fmt.Sprintf("reply %d/%d @%g", r, i, coord.Now()))
						replies++
						if replies == e.Lanes()-1 {
							coord.At(coord.Now(), func() { round(r + 1) })
						}
					})
				})
			})
		}
	}
	coord.At(0, func() { round(0) })
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
	for _, src := range []int{1, 0} { // schedule lane 1's first
		src := src
		l := e.Lane(src)
		l.At(0, func() {
			for k := 0; k < 3; k++ {
				k := k
				l.Send(target, 5, func() { got = append(got, fmt.Sprintf("%d.%d", src, k)) })
			}
		})
	}
	e.Run(1)
	want := []string{"0.0", "0.1", "0.2", "1.0", "1.1", "1.2"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tie order = %v, want %v", got, want)
	}
}

func TestEngineLookaheadViolationPanics(t *testing.T) {
	e := NewEngine(2, 10)
	e.Lane(0).At(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("short cross-lane send did not panic")
			}
		}()
		e.Lane(0).Send(e.Lane(1), 5, func() {})
	})
	e.Run(1)
}

func TestEngineSameLaneSendHasNoLatencyFloor(t *testing.T) {
	e := NewEngine(2, 10)
	ran := false
	e.Lane(0).At(0, func() {
		e.Lane(0).Send(e.Lane(0), 1, func() { ran = true })
	})
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
		seed := func(start float64) {
			e.Lane(0).At(start, func() {
				for i := 1; i < e.Lanes(); i++ {
					i := i
					e.Lane(0).Send(e.Lane(i), e.Lane(0).Now()+10, func() { perLane[i]++ })
				}
			})
		}
		seed(0)
		e.Run(workers)
		first := e.Now()
		seed(first)
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
	e := NewEngine(1, 0)
	var when float64 = -1
	e.Lane(0).At(10, func() {
		e.Lane(0).At(5, func() { when = e.Lane(0).Now() })
	})
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
		coord.At(0, func() {
			for i := 1; i < e.Lanes(); i++ {
				coord.SendEvent(e.Lane(i), coord.Now()+10, Event{Kind: KindTest, A: uint32(i)})
			}
		})
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
