package serving

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Metrics is a minimal Prometheus-text-format registry: labelled counters,
// fixed-bucket latency histograms and point-in-time gauges, rendered in
// sorted order so /metrics output is deterministic for a given state. It
// exists because the container bakes in no client library; the exposition
// format is simple enough to emit directly.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]map[string]int64      // name -> labels -> value
	hists    map[string]map[string]*histogram // name -> labels -> buckets
}

// latencyBuckets are the histogram upper bounds in seconds, covering the
// sub-millisecond warm path up to multi-second cold trains.
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}

type histogram struct {
	counts []int64 // one per latencyBuckets entry
	sum    float64
	count  int64
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]map[string]int64),
		hists:    make(map[string]map[string]*histogram),
	}
}

// Add increments a labelled counter. labels is the rendered label body, e.g.
// `endpoint="compress",code="200"` (empty for an unlabelled series).
func (m *Metrics) Add(name, labels string, delta int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	series := m.counters[name]
	if series == nil {
		series = make(map[string]int64)
		m.counters[name] = series
	}
	series[labels] += delta
}

// Observe records one latency sample into a labelled histogram.
func (m *Metrics) Observe(name, labels string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	series := m.hists[name]
	if series == nil {
		series = make(map[string]*histogram)
		m.hists[name] = series
	}
	h := series[labels]
	if h == nil {
		h = &histogram{counts: make([]int64, len(latencyBuckets))}
		series[labels] = h
	}
	for i, ub := range latencyBuckets {
		if seconds <= ub {
			h.counts[i]++
		}
	}
	h.sum += seconds
	h.count++
}

// Gauge is one point-in-time value supplied at render time.
type Gauge struct {
	Name   string
	Labels string
	Value  float64
}

// series joins a metric name with its rendered label body.
func series(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// withLabel appends one label pair to an already-rendered label body.
func withLabel(labels, pair string) string {
	if labels == "" {
		return pair
	}
	return labels + "," + pair
}

// WriteText renders the registry plus the caller's gauges in the Prometheus
// text exposition format, all series sorted by name then labels.
func (m *Metrics) WriteText(w io.Writer, gauges []Gauge) {
	m.mu.Lock()
	defer m.mu.Unlock()

	names := make([]string, 0, len(m.counters))
	for name := range m.counters { //slclint:allow determinism collected names are sorted before rendering
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "# TYPE %s counter\n", name)
		for _, labels := range sortedKeys(m.counters[name]) {
			fmt.Fprintf(w, "%s %d\n", series(name, labels), m.counters[name][labels])
		}
	}

	names = names[:0]
	for name := range m.hists { //slclint:allow determinism collected names are sorted before rendering
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "# TYPE %s histogram\n", name)
		for _, labels := range sortedKeys(m.hists[name]) {
			h := m.hists[name][labels]
			for i, ub := range latencyBuckets {
				le := strings.TrimSuffix(fmt.Sprintf("%g", ub), ".0")
				fmt.Fprintf(w, "%s %d\n", series(name+"_bucket", withLabel(labels, fmt.Sprintf(`le="%s"`, le))), h.counts[i])
			}
			fmt.Fprintf(w, "%s %d\n", series(name+"_bucket", withLabel(labels, `le="+Inf"`)), h.count)
			fmt.Fprintf(w, "%s %g\n", series(name+"_sum", labels), h.sum)
			fmt.Fprintf(w, "%s %d\n", series(name+"_count", labels), h.count)
		}
	}

	sorted := append([]Gauge(nil), gauges...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Name != sorted[j].Name {
			return sorted[i].Name < sorted[j].Name
		}
		return sorted[i].Labels < sorted[j].Labels
	})
	last := ""
	for _, g := range sorted {
		if g.Name != last {
			fmt.Fprintf(w, "# TYPE %s gauge\n", g.Name)
			last = g.Name
		}
		fmt.Fprintf(w, "%s %g\n", series(g.Name, g.Labels), g.Value)
	}
}

// sortedKeys returns a map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m { //slclint:allow determinism collected keys are sorted before return
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Gauges snapshots the core's point-in-time state for /metrics: queue
// depth, drain flag, table-cache traffic and (when a store is attached)
// the resultstore hit counters.
func (c *Core) Gauges() []Gauge {
	draining := 0.0
	if c.Draining() {
		draining = 1
	}
	ts := c.Tables.Stats()
	gauges := []Gauge{
		{Name: "slcd_inflight", Value: float64(c.InFlight())},
		{Name: "slcd_inflight_limit", Value: float64(cap(c.sem))},
		{Name: "slcd_draining", Value: draining},
		{Name: "slcd_table_requests_total", Value: float64(ts.Requests)},
		{Name: "slcd_table_retrains_total", Value: float64(ts.Retrains)},
		{Name: "slcd_table_disk_hits_total", Value: float64(ts.DiskHits)},
	}
	if st := c.Store(); st != nil {
		s := st.Stats()
		gauges = append(gauges,
			Gauge{Name: "slcd_store_hits_total", Value: float64(s.Hits)},
			Gauge{Name: "slcd_store_misses_total", Value: float64(s.Misses)},
			Gauge{Name: "slcd_store_puts_total", Value: float64(s.Puts)},
		)
	}
	return gauges
}
