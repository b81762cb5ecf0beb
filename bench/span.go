package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one cell or
// request share Op; Parent 0 marks the operation's root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span opens a span and returns its id and the function that closes it.
func (t *tracer) span(parent int64, name, op string) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	id := t.next.Add(1)
	start := time.Since(t.t0).Nanoseconds()
	return id, func() {
		end := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: start, End: end})
		t.mu.Unlock()
	}
}

// snapshot returns the closed spans ordered by id.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children of one span may overlap
// (the HTTP client and the handler it calls), so their union is subtracted.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// setSelfShares reports every layer's self time as a share of the summed
// duration of the operations (root spans), and returns the self times by
// span name, in seconds.
func setSelfShares(rep *report, spans []span) map[string]float64 {
	self := selfTimes(spans)
	byName := make(map[string]float64)
	var rootS float64
	for _, s := range spans {
		byName[s.Name] += float64(self[s.ID]) / 1e9
		if s.Parent == 0 {
			rootS += float64(s.dur()) / 1e9
		}
	}
	for _, name := range spanNames {
		rep.set("self."+name, ratio(byName[name], rootS))
	}
	return byName
}

// writeSpans writes one JSON object per span to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
