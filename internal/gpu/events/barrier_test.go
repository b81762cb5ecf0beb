package events

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// Barrier model op codes (KindTest).
const (
	opStretch uint8 = iota + 1
	opBusy
	opFollow
	opBack
)

// burn busy-waits for d of wall time, the way a heavy lane keeps its worker.
func burn(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// barrierLane is one lane of the barrier model. Each round, the coordinator
// runs alone in one window for stretch[r] of wall time; it then fans a
// request out to every lane, so the next window has every lane busy; the
// lanes answer, and the last answer schedules the next round's stretch one
// lookahead later, in a window of its own. The last stretch ends the run.
// Every lane logs what it runs.
type barrierLane struct {
	e       *Engine
	id      int
	stretch []time.Duration
	log     *[]string
	backs   int // coordinator only: answers received this round
}

func (b *barrierLane) HandleEvent(now float64, ev Event) {
	l, coord, la, r := b.e.Lane(b.id), b.e.Lane(0), b.e.Lookahead(), ev.A
	*b.log = append(*b.log, fmt.Sprintf("op %d round %d from %d @%g", ev.Op, r, ev.B, now))
	switch ev.Op {
	case opStretch:
		burn(b.stretch[r])
		if int(r) == len(b.stretch)-1 {
			return
		}
		b.backs = 0
		for i := 0; i < b.e.Lanes(); i++ {
			coord.SendEvent(b.e.Lane(i), now+la, Event{Kind: KindTest, Op: opBusy, A: r})
		}
	case opBusy:
		burn(20 * time.Microsecond)
		l.AtEvent(now+la/4, Event{Kind: KindTest, Op: opFollow, A: r})
	case opFollow:
		l.SendEvent(coord, now+la, Event{Kind: KindTest, Op: opBack, A: r, B: uint32(b.id)})
	case opBack:
		if b.backs++; b.backs == b.e.Lanes() {
			coord.AtEvent(now+la, Event{Kind: KindTest, Op: opStretch, A: r + 1})
		}
	}
}

// runBarrierModel runs the barrier model with the given coordinator-only
// stretches through drain and returns every lane's log.
func runBarrierModel(lanes int, stretch []time.Duration, drain func(*Engine)) [][]string {
	e := NewEngine(lanes, 10)
	logs := make([][]string, lanes)
	for i := range logs {
		e.Lane(i).SetHandler(KindTest, &barrierLane{e: e, id: i, stretch: stretch, log: &logs[i]})
	}
	e.Lane(0).AtEvent(0, Event{Kind: KindTest, Op: opStretch})
	drain(e)
	return logs
}

// TestBarrierStretchesAndBusyWindows alternates coordinator-only windows,
// which the caller runs without opening them while the helpers keep waiting
// for the next window, with windows in which every lane is busy. The
// stretches sweep from nothing to a millisecond, tens of windows' worth, so
// a window opens at every point of a helper's wait. The dispatch order must
// be the key order's at every worker count, and a window drained twice or
// never counted out hangs the barrier until the test's -timeout.
func TestBarrierStretchesAndBusyWindows(t *testing.T) {
	const rounds = 32
	stretch := make([]time.Duration, rounds)
	for r := range stretch {
		stretch[r] = time.Millisecond * time.Duration(r) / (rounds - 1)
	}
	want := runBarrierModel(4, stretch, runKeyOrder)
	for _, workers := range []int{1, 2, 3, 4} {
		if got := runBarrierModel(4, stretch, withWorkers(workers)); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: logs diverge from key order\nkey order: %v\nRun:       %v", workers, want, got)
		}
	}
}

// TestBarrierHelpersExit: Run must stop every helper before it returns,
// also when the last window is a long coordinator-only one.
// TestEngineParallelPanicReachesCaller checks the same after a helper
// panic.
func TestBarrierHelpersExit(t *testing.T) {
	for _, workers := range []int{2, 3, 4} {
		before := runtime.NumGoroutine()
		runPingPong(4, 5, withWorkers(workers))
		waitGoroutines(t, before)

		runBarrierModel(4, []time.Duration{0, 2 * time.Millisecond}, withWorkers(workers))
		waitGoroutines(t, before)
	}
}

// TestBarrierHelperStartsFromCurrentGeneration: the window's generation
// counter keeps counting across Runs, so a helper launched by a later Run
// must wait for that Run's first window. One that took the previous Run's
// last window for a new one would count itself out of pending before any
// window opened.
func TestBarrierHelperStartsFromCurrentGeneration(t *testing.T) {
	var w window
	w.gen.Store(7) // the windows of earlier Runs
	w.start(2)
	time.Sleep(10 * time.Millisecond)
	if n := w.pending.Load(); n != 0 {
		t.Errorf("pending = %d before any window opened: a helper drained a stale window", n)
	}
	w.stop()
}
