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
// -matrix NAME runs a named subset of the evaluation matrix (registered in
// internal/experiments; -list-matrix prints the set with descriptions) —
// e.g. `smoke` is CI's every-push slice, `new-codecs` covers the post-paper
// codec families (lz4b, zcd) and `float-workloads` runs the HPC float fields
// under the sz error-bounded family against lossless comparators. -bound
// overrides the error bound of any error-bounded (sz) cells in the selected
// subset. The text output is one line per cell; with -json the subset is
// emitted as a trajectory like any other target.
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
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cliio"
	"repro/internal/compress"
	"repro/internal/experiments"
	"repro/internal/gpu/sim"
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
	// The cells the selected target renders: full runs (timing + error) and
	// compression-only sweeps.
	var full, comp []experiments.Cell
	var target string
	switch {
	case *all:
		target = "all"
		full = experiments.EvaluationCells()
		comp = experiments.CompressionCells(compress.MAG32)
	case *ablations:
		target = "ablations"
		full = experiments.AblationCells()
	case *fig != 0:
		target = fmt.Sprintf("fig%d", *fig)
		full, comp = experiments.CellsForFigure(*fig)
		if len(full)+len(comp) == 0 {
			return fail(fmt.Errorf("unknown figure %d (have 1, 2, 7, 8, 9)", *fig))
		}
	case *matrix != "":
		target = "matrix:" + *matrix
		var merr error
		full, comp, merr = experiments.MatrixCells(*matrix)
		if merr != nil {
			return fail(merr)
		}
	}
	// -bound rewrites error-bounded cells to the requested bound; lossless
	// and threshold-lossy cells are untouched, so it is a no-op on subsets
	// without sz cells.
	if full, err = experiments.WithErrorBound(full, *bound); err != nil {
		return fail(err)
	}
	if comp, err = experiments.WithErrorBound(comp, *bound); err != nil {
		return fail(err)
	}

	// Warm the runner's memo across a worker pool; the output below then
	// reads memoised results and is byte-identical to a serial run.
	// (-table targets render static configuration tables; there is nothing
	// to parallelise.)
	if *parallel != 1 || *asJSON || *matrix != "" {
		if len(full) > 0 {
			if _, err := r.RunAll(full, *parallel); err != nil {
				return fail(err)
			}
		}
		if len(comp) > 0 {
			if err := r.CompressAll(comp, *parallel); err != nil {
				return fail(err)
			}
		}
	}

	if *asJSON {
		if target == "" {
			return fail(fmt.Errorf("-json needs -all, -fig, -ablations or -matrix"))
		}
		if err := emitJSON(w, r, target, full, comp); err != nil {
			return fail(err)
		}
		return 0
	}

	switch {
	case *all:
		if err := experiments.Report(w, r); err != nil {
			return fail(err)
		}
	case *ablations:
		ab, err := experiments.RunAblations(r)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(w, ab)
	case *table != 0:
		switch *table {
		case 1:
			fmt.Fprint(w, experiments.TableI())
		case 2:
			fmt.Fprint(w, experiments.TableII(sim.DefaultConfig()))
		case 3:
			fmt.Fprint(w, experiments.TableIII())
		default:
			return fail(fmt.Errorf("unknown table %d (have 1, 2, 3)", *table))
		}
	case *fig != 0:
		if err := runFigure(w, r, *fig); err != nil {
			return fail(err)
		}
	case *matrix != "":
		if err := printMatrix(w, r, *matrix, full, comp); err != nil {
			return fail(err)
		}
	default:
		fs.Usage()
		return 2
	}
	return 0
}

// emitJSON re-reads the memoised cells (warmed above) and writes the bench
// trajectory, including the store's hit counters when one is attached.
func emitJSON(w io.Writer, r *experiments.Runner, target string, full, comp []experiments.Cell) error {
	traj, err := experiments.CollectTrajectory(r, target, full, comp)
	if err != nil {
		return err
	}
	return traj.WriteJSON(w)
}

// printMatrix renders a named subset as one line per cell, reading the
// memoised results warmed above (so the -parallel setting cannot change the
// output).
func printMatrix(w io.Writer, r *experiments.Runner, name string, full, comp []experiments.Cell) error {
	m, _ := experiments.LookupMatrix(name)
	fmt.Fprintf(w, "matrix %s: %s\n", name, m.Desc)
	for _, c := range full {
		res, err := r.Run(c.Workload, c.Config)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-6s × %-20s %10.1f µs  CR %.2f/%.2f  err %.4f%%\n",
			res.Workload, res.Config.Name, res.Sim.TimeNs/1e3,
			res.Comp.RawRatio(), res.Comp.EffectiveRatio(), res.ErrorFrac*100)
	}
	for _, c := range comp {
		st, err := r.CompressionOnly(c.Workload, c.Config)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-6s × %-20s compression only   CR %.2f/%.2f\n",
			c.Workload.Info().Name, c.Config.Name, st.RawRatio(), st.EffectiveRatio())
	}
	return nil
}

func runFigure(w io.Writer, r *experiments.Runner, fig int) error {
	switch fig {
	case 1:
		f, err := experiments.Figure1(r, compress.MAG32)
		if err != nil {
			return err
		}
		fmt.Fprint(w, f)
	case 2:
		f, err := experiments.Figure2(r, compress.MAG32)
		if err != nil {
			return err
		}
		fmt.Fprint(w, f)
	case 7:
		f, err := experiments.Figure7(r)
		if err != nil {
			return err
		}
		fmt.Fprint(w, f)
	case 8:
		f, err := experiments.Figure8(r)
		if err != nil {
			return err
		}
		fmt.Fprint(w, f)
	case 9:
		f, err := experiments.Figure9(r)
		if err != nil {
			return err
		}
		fmt.Fprint(w, f)
	default:
		return fmt.Errorf("unknown figure %d (have 1, 2, 7, 8, 9)", fig)
	}
	return nil
}
