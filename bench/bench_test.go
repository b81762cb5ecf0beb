package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/compress"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric catalogue")

// benchmarkFile is BENCHMARK.json; decoding rejects any other key.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// catalogueFile is what BENCHMARK.json must hold.
func catalogueFile() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, w := range benchWorkloads() {
		f.Workloads = append(f.Workloads, workloadDoc{w.Name, w.Why})
	}
	return f
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSON(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want := catalogueFile()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var got benchmarkFile
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(got.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", got.RunSeconds)
	}
	seen := make(map[string]bool)
	for _, w := range got.Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("bad or repeated workload name %q", w.Name)
		}
		seen[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	largest := 0.0
	for _, m := range append(append([]metricDef(nil), got.EndToEnd...), got.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("bad or repeated metric name %q", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		largest = max(largest, m.Bound)
	}
	for _, m := range got.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	setup := got.EndToEnd[0]
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" || setup.Bound != largest {
		t.Errorf("setup_s must come first, in s, lower, with the largest bound: %+v", setup)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue; regenerate with go test -run TestBenchmarkJSON -update")
	}
}

// TestCodecCatalogue pins the per-codec metrics to the codec registry.
func TestCodecCatalogue(t *testing.T) {
	var registered []string
	for _, name := range compress.Names() {
		if info, _ := compress.Lookup(name); !info.Identity {
			registered = append(registered, name)
		}
	}
	if !reflect.DeepEqual(registered, codecNames) {
		t.Errorf("codecNames = %v, registry has %v", codecNames, registered)
	}
}

// TestTinyRuns runs every workload at one cell (one-second load steps), plain
// and traced, and checks that each prints exactly the catalogue's metrics with
// their units and passes its correctness checks.
func TestTinyRuns(t *testing.T) {
	dir := t.TempDir()
	for _, w := range benchWorkloads() {
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer()
			}
			spans := filepath.Join(dir, w.Name+".jsonl")
			var out bytes.Buffer
			res, err := runWorkload(w.Name, options{seed: 1, seconds: 1, tiny: true}, traced, spans, &out, io.Discard)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced %v): correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (traced %v): %d metrics, want %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s (traced %v): metric %s = %+v, want unit %s", w.Name, traced, d.Name, m, d.Unit)
				}
				if !traced && res.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w.Name, d.Name, res.Metrics[d.Name].Value)
				}
			}
			last, err := lastResult(out.Bytes())
			if err != nil || !reflect.DeepEqual(last, res) {
				t.Errorf("%s (traced %v): last output line is not the result (%v)", w.Name, traced, err)
			}
			if traced {
				checkSpans(t, w.Name, spans)
			}
		}
	}
}

// checkSpans checks a written trace: every span's self time lies within its
// duration, and its children's self times never exceed its span.
func checkSpans(t *testing.T, workload, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans written", workload)
	}
	self := selfTimes(spans)
	kidsSelf := make(map[int64]int64)
	byID := make(map[int64]span)
	for _, s := range spans {
		byID[s.ID] = s
		if self[s.ID] < 0 || self[s.ID] > s.dur() {
			t.Errorf("%s: span %d (%s) self time %d outside [0, %d]", workload, s.ID, s.Name, self[s.ID], s.dur())
		}
		kidsSelf[s.Parent] += self[s.ID]
	}
	for id, sum := range kidsSelf {
		if p, ok := byID[id]; ok && sum > p.dur() {
			t.Errorf("%s: children of span %d (%s) have %d ns of self time in a %d ns span", workload, id, p.Name, sum, p.dur())
		}
	}
}

func TestSelfTimesSubtractOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 40, End: 70},
		{ID: 4, Parent: 2, Name: "c", Start: 20, End: 30},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 40, 2: 30, 3: 30, 4: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{7, 7}, 7, 7},
	} {
		if q1, q3 := quartiles(c.vals); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.vals, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestJudge(t *testing.T) {
	d := metricDef{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}
	pairsOf := func(parent, change []float64) []pair {
		var out []pair
		for i := range parent {
			p := runRecord{EndUnixMs: int64(2 * i), Result: result{Metrics: map[string]metric{d.Name: {Value: parent[i]}}}}
			c := runRecord{EndUnixMs: int64(2*i + 1), Result: result{Metrics: map[string]metric{d.Name: {Value: change[i]}}}}
			if i%2 == 1 {
				p.EndUnixMs, c.EndUnixMs = c.EndUnixMs, p.EndUnixMs
			}
			out = append(out, pair{p, c})
		}
		return out
	}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(k float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * k
		}
		return out
	}
	for _, c := range []struct {
		change []float64
		want   string
	}{
		{shift(1.05), "gain"},
		{shift(0.8), "regression"},
		{shift(1.0), "unchanged"},
		{[]float64{60, 140, 60, 140, 60, 140, 60, 140, 60, 140}, "unresolved"},
	} {
		if v := judge(d, pairsOf(parent, c.change)); v.label != c.want {
			t.Errorf("change %v: %s, want %s", c.change, v.label, c.want)
		}
	}
	if v := judge(d, pairsOf(parent[:5], shift(1.05)[:5])); v.label != "too few pairs" {
		t.Errorf("five pairs: %s, want too few pairs", v.label)
	}
}
