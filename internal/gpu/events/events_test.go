package events

import "testing"

// recording is a Handler appending every dispatched event.
type recording struct {
	ops   []uint8
	times []float64
}

func (r *recording) HandleEvent(now float64, ev Event) {
	r.ops = append(r.ops, ev.Op)
	r.times = append(r.times, now)
}

type handlerFunc func(now float64, ev Event)

func (f handlerFunc) HandleEvent(now float64, ev Event) { f(now, ev) }

// oneLane returns a one-lane engine and its lane. Its lookahead is zero:
// Run drains a lone lane in one unbounded window.
func oneLane() (*Engine, *Lane) {
	e := NewEngine(1, 0)
	return e, e.Lane(0)
}

func TestTypedDispatchOrdering(t *testing.T) {
	e, l := oneLane()
	var rec recording
	l.SetHandler(KindTest, &rec)
	l.AtEvent(3, Event{Kind: KindTest, Op: 3})
	l.AtEvent(1, Event{Kind: KindTest, Op: 1})
	l.AtEvent(2, Event{Kind: KindTest, Op: 2})
	l.AtEvent(1, Event{Kind: KindTest, Op: 4}) // same time: insertion order
	e.Run(1)
	want := []uint8{1, 4, 2, 3}
	if len(rec.ops) != len(want) {
		t.Fatalf("dispatched %d events, want %d", len(rec.ops), len(want))
	}
	for i := range want {
		if rec.ops[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", rec.ops, want)
		}
	}
	if e.Now() != 3 {
		t.Errorf("Now = %v, want 3", e.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	e, l := oneLane()
	n := 0
	l.SetHandler(KindTest, handlerFunc(func(now float64, ev Event) {
		n++
		if n < 100 {
			l.AtEvent(now+1, ev)
		}
	}))
	l.AtEvent(0, Event{Kind: KindTest})
	e.Run(1)
	if n != 100 || e.Now() != 99 {
		t.Errorf("n=%d now=%v", n, e.Now())
	}
	if e.pending() != 0 {
		t.Errorf("pending = %d", e.pending())
	}
}

func TestNoHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dispatching a kind with no handler did not panic")
		}
	}()
	e, l := oneLane()
	l.AtEvent(0, Event{Kind: KindTest})
	e.Run(1)
}

func TestPackCompletionRoundTrip(t *testing.T) {
	ev := Event{Kind: KindSim, Op: 7, A: 0xDEADBEEF}
	got := UnpackCompletion(PackCompletion(ev))
	if got != ev {
		t.Fatalf("round trip %+v, want %+v", got, ev)
	}
}

// TestLaneResetReuses replays the same schedule through one lane and
// requires the second run to dispatch identically after Engine.Reset.
func TestLaneResetReuses(t *testing.T) {
	e, l := oneLane()
	var rec recording
	l.SetHandler(KindTest, &rec)
	run := func() {
		for i := 0; i < 50; i++ {
			l.AtEvent(float64(i%7), Event{Kind: KindTest, Op: uint8(i)})
		}
		e.Run(1)
	}
	run()
	first := append([]uint8(nil), rec.ops...)
	rec.ops, rec.times = rec.ops[:0], rec.times[:0]
	e.Reset()
	run()
	if len(rec.ops) != len(first) {
		t.Fatalf("replay dispatched %d events, first run %d", len(rec.ops), len(first))
	}
	for i := range first {
		if rec.ops[i] != first[i] {
			t.Fatalf("replay order diverged at %d: %d vs %d", i, rec.ops[i], first[i])
		}
	}
}

// pending returns the total number of scheduled events across lanes.
func (e *Engine) pending() int {
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
