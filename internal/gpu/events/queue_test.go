package events

import (
	"fmt"
	"reflect"
	"testing"
)

// dispatched is one entry of a lane's dispatch log.
type dispatched struct {
	t  float64
	id uint64
}

// orderHandler runs a pseudo-random schedule on one lane of a
// queueSchedule. Each dispatched event logs itself and fans out to 1–2
// follow-ups on pseudo-random lanes, each either loose or through one of the
// target lane's queues, until the lane's budget is spent. Follow-ups through
// queue 1 or 2 land at a fixed offset from now — the monotone stream a queue
// is for — while queue 0 takes random offsets, so its pushes arrive out of
// order on purpose. With loose set, every follow-up is scheduled loose
// instead; the schedule is otherwise the same.
type orderHandler struct {
	s      *queueSchedule
	lane   *Lane
	budget int
	log    []dispatched
}

func (h *orderHandler) HandleEvent(now float64, ev Event) {
	h.log = append(h.log, dispatched{now, ev.Addr})
	x := ev.Addr
	for fan := 1 + x%2; fan > 0 && h.budget > 0; fan-- {
		h.budget--
		x = x*6364136223846793005 + 1442695040888963407
		next := Event{Kind: KindTest, Addr: x}
		to := h.s.eng.Lane(int(x>>33) % len(h.s.eng.lanes))
		qi := int(x>>40) % (queuesPerLane + 1) // queuesPerLane: loose
		offset := float64(qi)
		if qi == 0 {
			offset = float64(x >> 50 % 8)
		}
		t := now + offset
		if to != h.lane {
			t += h.s.eng.lookahead
		}
		switch {
		case h.s.loose || qi == queuesPerLane:
			h.lane.SendEvent(to, t, next)
		case to == h.lane && x>>20&1 == 0:
			h.lane.AtQueue(h.s.queues[to.id][qi], t, next)
		default:
			h.lane.SendQueue(h.s.queues[to.id][qi], t, next)
		}
	}
}

const queuesPerLane = 3

// queueSchedule is an engine wired with orderHandlers and queuesPerLane
// queues on every lane.
type queueSchedule struct {
	eng      *Engine
	queues   [][]Queue
	handlers []*orderHandler
	loose    bool
}

func newQueueSchedule(lanes int, loose bool) *queueSchedule {
	s := &queueSchedule{eng: NewEngine(lanes, 1), loose: loose}
	for i := 0; i < lanes; i++ {
		l := s.eng.Lane(i)
		var qs []Queue
		for k := 0; k < queuesPerLane; k++ {
			qs = append(qs, l.NewQueue())
		}
		s.queues = append(s.queues, qs)
		h := &orderHandler{s: s, lane: l}
		s.handlers = append(s.handlers, h)
		l.SetHandler(KindTest, h)
	}
	return s
}

// run replays the schedule from a Reset through drain and returns every
// lane's dispatch log.
func (s *queueSchedule) run(drain func(*Engine)) [][]dispatched {
	s.eng.Reset()
	for i, h := range s.handlers {
		h.budget, h.log = 3000, nil
		for k := 0; k < 4; k++ {
			s.eng.Lane(i).AtEvent(float64(k%3), Event{Kind: KindTest, Addr: uint64(i*4+k)*2654435761 + 5})
		}
	}
	drain(s.eng)
	logs := make([][]dispatched, len(s.handlers))
	for i, h := range s.handlers {
		logs[i] = h.log
	}
	return logs
}

// TestQueuesMatchLooseOrder: routing a random schedule through ordered
// queues — including out-of-order pushes onto one queue of every lane and
// cross-lane queue sends — dispatches every lane's events in exactly the
// order the same schedule has with every event loose in the key-order
// reference, at 1, 2 and 4 workers, and again after a Reset.
func TestQueuesMatchLooseOrder(t *testing.T) {
	const lanes = 4
	ref := newQueueSchedule(lanes, true)
	want := ref.run(runKeyOrder)
	if ref.eng.Fallbacks() != 0 {
		t.Fatalf("an all-loose run counted %d fallbacks", ref.eng.Fallbacks())
	}
	total := 0
	for _, l := range want {
		total += len(l)
	}
	if total < 10000 {
		t.Fatalf("the schedule dispatched only %d events", total)
	}
	for _, workers := range []int{1, 2, 4} {
		s := newQueueSchedule(lanes, false)
		for replay := 0; replay < 2; replay++ {
			name := fmt.Sprintf("workers %d, replay %d", workers, replay)
			got := s.run(withWorkers(workers))
			if !reflect.DeepEqual(got, want) {
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("%s: lane %d dispatched a different sequence than the all-loose run", name, i)
					}
				}
			}
			if n := s.eng.Fallbacks(); n == 0 {
				t.Errorf("%s: no fallbacks, so the out-of-order path went untested", name)
			}
			if s.eng.pending() != 0 {
				t.Errorf("%s: %d events left pending", name, s.eng.pending())
			}
		}
	}
}

// TestQueueFallbackKeepsOrder pins the fallback on one lane: a push below
// its queue's tail goes onto the heap loose, is counted, and is still
// dispatched in key order; pending counts queued and loose events alike.
func TestQueueFallbackKeepsOrder(t *testing.T) {
	e, l := oneLane()
	var rec recording
	l.SetHandler(KindTest, &rec)
	q := l.NewQueue()
	for i, tm := range []float64{1, 3, 3, 2, 5, 0} {
		l.AtQueue(q, tm, Event{Kind: KindTest, Op: uint8(i)})
	}
	if n := e.Fallbacks(); n != 2 {
		t.Errorf("Fallbacks = %d, want 2 (the pushes at 2 and 0)", n)
	}
	if n := e.pending(); n != 6 {
		t.Errorf("pending = %d, want 6", n)
	}
	e.Run(1)
	if want := []uint8{5, 0, 3, 1, 2, 4}; !reflect.DeepEqual(rec.ops, want) {
		t.Errorf("dispatch order %v, want %v", rec.ops, want)
	}
	mustPanic(t, "AtQueue with another lane's queue", func() {
		NewEngine(1, 0).Lane(0).AtQueue(q, 0, Event{Kind: KindTest})
	})
}
