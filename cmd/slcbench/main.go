// Command slcbench regenerates the paper's tables and figures.
//
// Usage:
//
//	slcbench -all                 # everything (written to -out, default stdout)
//	slcbench -all -parallel 0     # same, fanned across all cores
//	slcbench -fig 7               # one figure (1, 2, 7, 8, 9)
//	slcbench -table 1             # one table (1, 2, 3)
//	slcbench -fig 7 -json         # machine-readable cell results
//	slcbench -matrix smoke -json  # a named cell subset (see -list-matrix)
//	slcbench -all -out report.txt -v
//
// -parallel N executes the evaluation matrix on N workers (0 = all cores)
// before rendering; the figures then read the memoised results, so the
// output is identical to a serial run. -simworkers N additionally shards
// each cell's timing simulation across N event lanes (0 = all cores) and,
// above 1, replays each kernel while the workload computes the next, with
// bitwise-identical results. -json replaces the text report with a JSON
// dump of every executed cell — the format the bench trajectory is
// recorded in.
//
// Every target is one entry of the evaluation table in internal/experiments:
// -fig N is entry figN, -table N is tableN, -ablations and -all are the
// entries of those names, and -matrix NAME selects any entry by name
// (-list-matrix prints them with descriptions). Besides the paper's
// artefacts the table holds named cell subsets: e.g. `smoke` is CI's
// every-push slice, `new-codecs` covers the post-paper codec families (lz4b,
// zcd) and `float-workloads` runs the HPC float fields under the sz
// error-bounded family against lossless comparators. -bound overrides the
// error bound of any error-bounded (sz) cells in the selected entry. A
// subset without a figure of its own prints one line per cell; with -json
// every entry with cells is emitted as a trajectory.
//
// -store DIR persists memoised results (golden runs, entropy tables, cell
// measurements) to a content-addressed store in DIR; a second identical
// invocation then recomputes nothing and emits bitwise-identical results
// (observable via the Store hit counters in -json output). -store-clear
// empties the store first.
//
// -cpuprofile FILE / -memprofile FILE record pprof profiles of whatever the
// invocation runs — see the README's "Profiling" section for the workflow.
// slcbench measures the paper's simulated results, not host speed; wall-clock
// throughput of the simulator, codecs and daemon is the bench/ module's job
// (bench/README.md).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/cliio"
	"repro/internal/experiments"
	"repro/internal/profileflag"
	"repro/internal/storeflag"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of slcbench. Every failure path — including
// write errors to -out, which fmt.Fprintf-based rendering would otherwise
// swallow — must yield a non-zero exit.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("slcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		all       = fs.Bool("all", false, "regenerate every table and figure")
		fig       = fs.Int("fig", 0, "regenerate one figure (1, 2, 7, 8, 9)")
		table     = fs.Int("table", 0, "regenerate one table (1, 2, 3)")
		ablations = fs.Bool("ablations", false, "run the ablation study")
		matrix    = fs.String("matrix", "", "run a named cell subset of the evaluation matrix (see -list-matrix)")
		bound     = fs.Float64("bound", 0, "override the error bound of error-bounded cells in the selected matrix (0 = keep each cell's bound)")
		listMat   = fs.Bool("list-matrix", false, "list registered matrix subsets and exit")
		out       = fs.String("out", "", "write output to this file instead of stdout")
		parallel  = fs.Int("parallel", 1, "evaluation workers (0 = all cores, 1 = serial)")
		simw      = fs.Int("simworkers", 1, "worker goroutines per sharded timing simulation (0 = all cores, 1 = serial engine); > 1 also replays each kernel while the workload computes the next")
		asJSON    = fs.Bool("json", false, "emit the executed cells as JSON instead of the text report (-all, -fig, -ablations, -matrix)")
		verbose   = fs.Bool("v", false, "log per-run progress to stderr")
		store     = storeflag.RegisterOn(fs)
		prof      = profileflag.RegisterOn(fs)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if extra := fs.Args(); len(extra) > 0 {
		fmt.Fprintf(stderr, "slcbench: unexpected arguments: %v\n", extra)
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "slcbench:", err)
		return 1
	}

	if *listMat {
		for _, name := range experiments.MatrixNames() {
			m, _ := experiments.LookupMatrix(name)
			fmt.Fprintf(stdout, "%-14s %s\n", name, m.Desc)
		}
		return 0
	}

	if err := prof.Start(); err != nil {
		return fail(err)
	}
	defer func() {
		// A truncated profile is a failed invocation even when the report
		// rendered fine.
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(stderr, "slcbench:", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	w := cliio.NewWriter(stdout)
	var outFile *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		outFile = f
		w = cliio.NewWriter(f)
	}
	defer func() {
		// Surface short writes (full disk, closed pipe) as a failure; the
		// rendering paths write through fmt.Fprintf, which drops errors.
		if err := w.Err(); err != nil {
			fmt.Fprintln(stderr, "slcbench: writing output:", err)
			if code == 0 {
				code = 1
			}
		}
		if outFile != nil {
			if err := outFile.Close(); err != nil {
				fmt.Fprintln(stderr, "slcbench: closing output:", err)
				if code == 0 {
					code = 1
				}
			}
		}
	}()

	r := experiments.NewRunner()
	r.SimWorkers = experiments.Workers(*simw)
	if *verbose {
		r.Progress = func(s string) { fmt.Fprintln(stderr, "  ..", s) }
	}
	st, err := store.Attach(r)
	if err != nil {
		return fail(err)
	}
	if st != nil {
		defer func() {
			s := st.Stats()
			fmt.Fprintf(stderr, "store %s: %d hits, %d misses, %d writes\n",
				st.Dir(), s.Hits, s.Misses, s.Puts)
		}()
	}
	// Every target flag names one entry of the evaluation table, and every
	// entry goes down one path: warm its cells across the worker pool,
	// collect them, then emit them as JSON or render them. The render reads
	// only the collected cells, so the output is byte-identical for every
	// -parallel.
	var name, target string
	var unknown error
	switch {
	case *all:
		name = "all"
	case *ablations:
		name = "ablations"
	case *table != 0:
		name = fmt.Sprintf("table%d", *table)
		unknown = fmt.Errorf("unknown table %d (have %s)", *table, numbered("table"))
	case *fig != 0:
		name = fmt.Sprintf("fig%d", *fig)
		unknown = fmt.Errorf("unknown figure %d (have %s)", *fig, numbered("fig"))
	case *matrix != "":
		name, target = *matrix, "matrix:"+*matrix
		unknown = fmt.Errorf("unknown matrix subset %q (available: %s)", *matrix, strings.Join(experiments.MatrixNames(), ", "))
	case *asJSON:
		return fail(errJSONTarget)
	default:
		fs.Usage()
		return 2
	}
	m, ok := experiments.LookupMatrix(name)
	if !ok {
		return fail(unknown)
	}
	if target == "" {
		target = name
	}
	if *asJSON && m.Cells == nil {
		return fail(errJSONTarget)
	}
	traj, err := m.Evaluate(r, target, *parallel, *bound)
	if err != nil {
		return fail(err)
	}
	switch {
	case *asJSON:
		err = traj.WriteJSON(w)
	case m.Render != nil:
		var s fmt.Stringer
		if s, err = m.Render(traj); err == nil {
			fmt.Fprint(w, s)
		}
	default:
		printMatrix(w, m, traj)
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// errJSONTarget rejects -json without cells to emit.
var errJSONTarget = errors.New("-json needs -all, -fig, -ablations or -matrix")

// numbered lists the numbers N of the entries named prefix+N, e.g.
// "1, 2, 7, 8, 9" for the figures.
func numbered(prefix string) string {
	var ns []string
	for _, name := range experiments.MatrixNames() {
		if n, ok := strings.CutPrefix(name, prefix); ok {
			if _, err := strconv.Atoi(n); err == nil {
				ns = append(ns, n)
			}
		}
	}
	return strings.Join(ns, ", ")
}

// printMatrix renders an entry without a figure of its own as one line per
// collected cell.
func printMatrix(w io.Writer, m experiments.Matrix, traj *experiments.Trajectory) {
	fmt.Fprintf(w, "matrix %s: %s\n", m.Name, m.Desc)
	for _, res := range traj.Results {
		fmt.Fprintf(w, "  %-6s × %-20s %10.1f µs  CR %.2f/%.2f  err %.4f%%\n",
			res.Workload, res.Config.Name, res.Sim.TimeNs/1e3,
			res.Comp.RawRatio(), res.Comp.EffectiveRatio(), res.ErrorFrac*100)
	}
	for _, res := range traj.Compression {
		fmt.Fprintf(w, "  %-6s × %-20s compression only   CR %.2f/%.2f\n",
			res.Workload, res.Config.Name, res.Comp.RawRatio(), res.Comp.EffectiveRatio())
	}
}
