// Command bench is the repository's benchmark: four seeded workloads that
// drive the evaluation engine, the codec sweep and the slcd serving tier
// through their public packages, check that every output is correct, and
// print every metric by name with its unit.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload fig7-cold --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --seed 1
//	bash bench/run.sh --workload all --calibrate 10 --record runs.jsonl
//	bash bench/run.sh --compare parent.jsonl change.jsonl
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// re-runs the workload with spans around every layer call and reports the
// per-layer metrics, writing the spans to --spans. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// The exit code is non-zero when any correctness check fails. See
// bench/README.md for the workloads, the metrics and how to read a trace.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are one workload run's settings.
type options struct {
	seed    int64
	seconds float64
	// tiny shrinks every workload to one cell and one-second load steps,
	// for the package tests.
	tiny bool
}

// report accumulates one run's outcome.
type report struct {
	attempted, failed int64
	problems          []string
	notes             []string
	metrics           map[string]metric
}

// note keeps a line of context printed before the metrics.
func (r *report) note(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

// set records a metric, taking its unit from the catalogue.
func (r *report) set(name string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

// fail counts one failed operation and keeps its reason.
func (r *report) fail(format string, args ...interface{}) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted comparison, failing it when ok is false.
func (r *report) check(ok bool, format string, args ...interface{}) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

var units = func() map[string]string {
	m := make(map[string]string)
	for _, d := range append(perLayer(), endToEnd...) {
		m[d.Name] = d.Unit
	}
	return m
}()

func unitOf(name string) string {
	u, ok := units[name]
	if !ok {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	return u
}

// finish turns the report into the printed result: every catalogue metric of
// the run's kind, per-layer metrics a workload never set reading 0.
func (r *report) finish(traced bool) (result, error) {
	defs := endToEnd
	if traced {
		defs = perLayer()
	}
	out := result{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		m, ok := r.metrics[d.Name]
		if !ok {
			if !traced {
				return out, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
			}
			m = metric{Unit: d.Unit}
		}
		out.Metrics[d.Name] = m
	}
	out.Correct = r.failed == 0 && r.attempted > 0
	return out, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", runSeconds, "measurement time of one run")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	spansPath := fs.String("spans", "", "file the traced run writes its spans to (default: next to the binary)")
	calibrate := fs.Int("calibrate", 0, "run each workload N times with seeds seed..seed+N-1 and print the spreads")
	record := fs.String("record", "", "append one JSON line per run (workload, seed, result) to this file")
	compare := fs.Bool("compare", false, "compare two record files: -compare PARENT CHANGE")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two record files: PARENT CHANGE")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1")
		return 2
	}
	names, err := selectWorkloads(*workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	switch {
	case *calibrate > 0:
		if *calibrate < 5 {
			fmt.Fprintln(stderr, "bench: -calibrate needs at least 5 runs")
			return 2
		}
		return runCalibrate(names, *seed, *calibrate, *seconds, *traceFlag, *record, stdout, stderr)
	case len(names) > 1:
		code := 0
		for _, name := range names {
			res, out, err := runChild(name, *seed, *seconds, *traceFlag)
			stdout.Write(out)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
				code = 1
				continue
			}
			if err := appendRecord(*record, name, *seed, *traceFlag, res); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				code = 1
			}
		}
		return code
	}
	opts := options{seed: *seed, seconds: float64(*seconds)}
	res, err := runWorkload(names[0], opts, *traceFlag == 1, *spansPath, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", names[0], err)
		return 1
	}
	if err := appendRecord(*record, names[0], *seed, *traceFlag, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// selectWorkloads resolves the -workload flag.
func selectWorkloads(name string) ([]string, error) {
	var all []string
	for _, w := range benchWorkloads() {
		all = append(all, w.Name)
		if w.Name == name {
			return []string{name}, nil
		}
	}
	if name == "all" {
		return all, nil
	}
	return nil, fmt.Errorf("unknown workload %q (available: %s, all)", name, strings.Join(all, ", "))
}

// runWorkload runs one workload in this process and prints its metrics, the
// result JSON last.
func runWorkload(name string, o options, traced bool, spansPath string, stdout, stderr io.Writer) (result, error) {
	var def workloadDef
	for _, w := range benchWorkloads() {
		if w.Name == name {
			def = w
		}
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	rep := newReport()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := def.run(o, tr, rep); err != nil {
		return result{}, err
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if _, ok := rep.metrics["peak_rss_mb"]; !ok {
		rep.set("peak_rss_mb", peakRSSMB())
	}
	rep.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	rep.set("runtime.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	rep.set("runtime.gc_cycles", float64(after.NumGC-before.NumGC))
	if traced {
		spans := tr.snapshot()
		rep.set("trace.spans", float64(len(spans)))
		if spansPath == "" {
			spansPath = defaultSpansPath(name, o.seed)
		}
		if err := writeSpans(spansPath, spans); err != nil {
			return result{}, err
		}
		fmt.Fprintf(stderr, "bench: %d spans written to %s\n", len(spans), spansPath)
	}
	res, err := rep.finish(traced)
	if err != nil {
		return res, err
	}
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "bench: FAILED:", p)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "%-16s %s\n", name, n)
	}
	return res, printResult(stdout, name, res)
}

// defaultSpansPath puts the spans beside the benchmark binary, which the
// wrapper script builds into the checkout's build directory.
func defaultSpansPath(name string, seed int64) string {
	dir := "."
	if exe, err := os.Executable(); err == nil {
		dir = filepath.Dir(exe)
	}
	return filepath.Join(dir, "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
}

// printResult prints one "name value unit" line per metric, then the JSON.
func printResult(w io.Writer, workload string, res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-16s %-36s %14.6g %s\n", workload, n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-16s correct=%v attempted=%d failed=%d\n", workload, res.Correct, res.Attempted, res.Failed)
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS returns freed memory to the OS and restarts the peak-RSS mark,
// so the next peakRSSMB covers only what follows. Where the kernel does not
// support the reset, the mark keeps covering the whole process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// runChild runs one workload in a child process of this binary, so its peak
// RSS is its own, and returns the parsed result and the child's output.
func runChild(name string, seed int64, seconds, traceFlag int) (result, []byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, nil, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(traceFlag))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	res, perr := lastResult(out.Bytes())
	if perr != nil {
		return res, out.Bytes(), errors.Join(runErr, perr)
	}
	if runErr != nil {
		return res, out.Bytes(), runErr
	}
	return res, out.Bytes(), nil
}

// lastResult parses the result JSON from the last line of a run's output.
func lastResult(out []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

// runRecord is one line of a -record file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	// EndUnixMs orders runs in time, so -compare can check that parent and
	// change runs alternated.
	EndUnixMs int64  `json:"end_unix_ms"`
	Result    result `json:"result"`
}

// appendRecord appends a run to the -record file, if one was given.
func appendRecord(path, workload string, seed int64, traceFlag int, res result) error {
	if path == "" {
		return nil
	}
	line, err := json.Marshal(runRecord{workload, seed, traceFlag, time.Now().UnixMilli(), res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o666)
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("record: %w", err)
	}
	return f.Close()
}
