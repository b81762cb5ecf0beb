package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// runCalibrate runs each workload n times, each in a child process with its
// own seed (seed, seed+1, ...), and prints for every metric the median, the
// quartiles, the interquartile spread and the range as shares of the median —
// the table bench/CALIBRATION.md records and the bounds come from. Each seed
// runs every workload in turn, so the runs of one workload spread over the
// whole calibration and meet the host's slow and fast spells alike.
func runCalibrate(names []string, seed int64, n, seconds, traceFlag int, record string, stdout, stderr io.Writer) int {
	code := 0
	runs := make(map[string][]result)
	for i := 0; i < n; i++ {
		for _, name := range names {
			res, _, err := runChild(name, seed+int64(i), seconds, traceFlag)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s seed %d: %v\n", name, seed+int64(i), err)
				code = 1
				continue
			}
			if err := appendRecord(record, name, seed+int64(i), traceFlag, res); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				code = 1
			}
			runs[name] = append(runs[name], res)
		}
	}
	for _, name := range names {
		printCalibration(stdout, name, runs[name])
	}
	return code
}

// printCalibration prints one markdown row per metric.
func printCalibration(w io.Writer, workload string, runs []result) {
	fmt.Fprintf(w, "\n%s (%d runs)\n\n", workload, len(runs))
	fmt.Fprintln(w, "| metric | unit | median | q1 | q3 | IQR/median | (max-min)/median | bound |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
	bounds := make(map[string]float64)
	for _, d := range endToEnd {
		bounds[d.Name] = d.Bound
	}
	for _, name := range metricNames(runs) {
		vals := values(runs, name)
		med := median(vals)
		q1, q3 := quartiles(vals)
		s := sorted(vals)
		bound := "-"
		if b, ok := bounds[name]; ok {
			bound = fmt.Sprintf("%.3f", b)
		}
		fmt.Fprintf(w, "| %s | %s | %.6g | %.6g | %.6g | %.4f | %.4f | %s |\n",
			name, runs[0].Metrics[name].Unit, med, q1, q3, spread(vals), ratio(s[len(s)-1]-s[0], math.Abs(med)), bound)
	}
}

// metricNames returns the sorted metric names of the runs.
func metricNames(runs []result) []string {
	seen := make(map[string]bool)
	var names []string
	for _, r := range runs {
		for n := range r.Metrics {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	return names
}

// values collects one metric across runs.
func values(runs []result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// readRecords reads a -record file.
func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// pair is one parent run and one change run of the same workload and seed.
type pair struct{ parent, change runRecord }

// pairRuns matches untraced parent and change runs by workload and seed, in
// record order.
func pairRuns(parent, change []runRecord) map[string][]pair {
	type key struct {
		workload string
		seed     int64
	}
	waiting := make(map[key][]runRecord)
	for _, r := range parent {
		if r.Trace == 0 {
			k := key{r.Workload, r.Seed}
			waiting[k] = append(waiting[k], r)
		}
	}
	out := make(map[string][]pair)
	for _, c := range change {
		k := key{c.Workload, c.Seed}
		if c.Trace != 0 || len(waiting[k]) == 0 {
			continue
		}
		out[c.Workload] = append(out[c.Workload], pair{waiting[k][0], c})
		waiting[k] = waiting[k][1:]
	}
	return out
}

// verdict is the comparison of one end-to-end metric on one workload.
type verdict struct {
	label                string // gain, regression, unresolved, unchanged
	parentMed, changeMed float64
	wins, pairs          int
	parentIQR, changeIQR float64 // as shares of the median
}

// alternated reports whether the parent ran first in half of the pairs.
func alternated(pairs []pair) bool {
	parentFirst := 0
	for _, pr := range pairs {
		if pr.parent.EndUnixMs < pr.change.EndUnixMs {
			parentFirst++
		}
	}
	return abs(2*parentFirst-len(pairs)) <= 1
}

// judge applies the rule of the choosing-metrics guide, §8: a gain needs at
// least ten alternating pairs, wins in nine tenths of them and a median
// difference larger than the parent's interquartile distance; a regression
// is a median worse than the parent's by more than the bound; a metric whose
// spread exceeds the bound is unresolved unless every change run beats every
// parent run.
func judge(d metricDef, pairs []pair) verdict {
	v := verdict{pairs: len(pairs)}
	var p, c []float64
	for _, pr := range pairs {
		pv, cv := pr.parent.Result.Metrics[d.Name].Value, pr.change.Result.Metrics[d.Name].Value
		p, c = append(p, pv), append(c, cv)
		if better(d, cv, pv) {
			v.wins++
		}
	}
	v.parentMed, v.changeMed = median(p), median(c)
	v.parentIQR, v.changeIQR = spread(p), spread(c)
	q1, q3 := quartiles(p)
	worse := (v.changeMed - v.parentMed) / math.Abs(v.parentMed)
	if d.Better == "higher" {
		worse = -worse
	}
	allBetter := len(p) > 0
	for _, cv := range c {
		for _, pv := range p {
			if !better(d, cv, pv) {
				allBetter = false
			}
		}
	}
	switch {
	case len(pairs) < 10:
		v.label = "too few pairs"
	case worse > d.Bound:
		v.label = "regression"
	case math.Max(v.parentIQR, v.changeIQR) > d.Bound && !allBetter:
		v.label = "unresolved"
	case alternated(pairs) && 10*v.wins >= 9*len(pairs) && math.Abs(v.changeMed-v.parentMed) > q3-q1:
		v.label = "gain"
	default:
		v.label = "unchanged"
	}
	return v
}

func better(d metricDef, a, b float64) bool {
	if d.Better == "higher" {
		return a > b
	}
	return a < b
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// runCompare prints one row per workload judging every end-to-end metric of
// the change against the parent. It exits 1 when any metric regressed.
func runCompare(parentPath, changePath string, stdout, stderr io.Writer) int {
	parent, err := readRecords(parentPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	change, err := readRecords(changePath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	byWorkload := pairRuns(parent, change)
	if len(byWorkload) == 0 {
		fmt.Fprintln(stderr, "bench: no runs pair up by workload and seed")
		return 1
	}
	code := 0
	for _, w := range benchWorkloads() {
		pairs, ok := byWorkload[w.Name]
		if !ok {
			continue
		}
		var cols []string
		for _, d := range endToEnd {
			v := judge(d, pairs)
			if v.label == "regression" {
				code = 1
			}
			cols = append(cols, fmt.Sprintf("%s %s (%.4g -> %.4g, %d/%d wins, IQR %.3f/%.3f)",
				d.Name, v.label, v.parentMed, v.changeMed, v.wins, v.pairs, v.parentIQR, v.changeIQR))
		}
		alt := "alternated"
		if !alternated(pairs) {
			alt = "NOT alternated: no gain can be claimed"
		}
		fmt.Fprintf(stdout, "%s [%d pairs, %s]: %s\n", w.Name, len(pairs), alt, strings.Join(cols, "; "))
	}
	return code
}
