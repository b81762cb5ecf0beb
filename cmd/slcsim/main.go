// Command slcsim runs one benchmark under one compression configuration and
// prints the full measurement: compression statistics, the memory access
// trace summary and the compressed-block size distribution behind the
// paper's Figure 2, timing, traffic, energy and application error.
//
// Usage:
//
//	slcsim -bench NN -codec tslc-opt -mag 32 -threshold 16
//	slcsim -bench DCT -codec e2mc -parallel 0
//	slcsim -bench TP -codec lz4b
//	slcsim -bench SRAD1 -codec e2mc -mag 64
//	slcsim -list
//	slcsim -list-codecs
//
// The codec is selected by its registry name (compress.Names); an unknown
// name fails with the available set. That set includes the post-paper
// families registered through the same mechanism (lz4b, zcd — see the
// README's codec table); they need no special flags. Everything printed
// comes from the RunResult of experiments.Runner.Run, the one cell path the
// figures use, so the trace and distribution are those of the pipeline that
// actually ran. A cell always includes its timing replay.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/compress"
	"repro/internal/experiments"
	"repro/internal/storeflag"
	"repro/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of slcsim: every bad selection — unknown bench,
// unknown codec, invalid MAG — reports the available set and exits non-zero
// before any expensive work starts.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench     = fs.String("bench", "", "benchmark name (see -list)")
		codec     = fs.String("codec", "tslc-opt", "codec registry name (see -list-codecs)")
		magBytes  = fs.Int("mag", 32, "memory access granularity in bytes (16, 32, 64)")
		threshold = fs.Int("threshold", 16, "lossy threshold in bytes, 0 to 128 (lossy codecs only; 0 = 16)")
		bound     = fs.Float64("bound", 0, "absolute error bound (error-bounded codecs only; 0 = codec default)")
		parallel  = fs.Int("parallel", 1, "worker goroutines for block compression (0 = all cores)")
		simw      = fs.Int("simworkers", 1, "worker goroutines for the sharded timing simulator (0 = all cores, 1 = one worker with no helper goroutines); > 1 also replays each kernel while the workload computes the next; results are identical either way")
		list      = fs.Bool("list", false, "list benchmarks and exit")
		listCodec = fs.Bool("list-codecs", false, "list registered codecs and exit")
		verbose   = fs.Bool("v", false, "log progress")
		store     = storeflag.RegisterOn(fs)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if extra := fs.Args(); len(extra) > 0 {
		fmt.Fprintf(stderr, "slcsim: unexpected arguments: %v\n", extra)
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "slcsim:", err)
		return 1
	}

	if *list {
		for _, w := range workloads.All() {
			in := w.Info()
			fmt.Fprintf(stdout, "%-6s %-28s %-16s %s, %d approx regions\n",
				in.Name, in.Short, in.Input, in.Metric, in.AR)
		}
		return 0
	}
	if *listCodec {
		fmt.Fprintln(stdout, strings.Join(compress.Names(), "\n"))
		return 0
	}
	if *bench == "" {
		fs.Usage()
		return 2
	}
	w, err := workloads.ByName(*bench)
	if err != nil {
		return fail(err)
	}
	cfg, err := experiments.NamedConfig(*codec, compress.MAG(*magBytes), *threshold*8, *bound)
	if err != nil {
		return fail(err)
	}
	r := experiments.NewRunner()
	r.SyncWorkers = experiments.Workers(*parallel)
	r.SimWorkers = experiments.Workers(*simw)
	if *verbose {
		r.Progress = func(s string) { fmt.Fprintln(stderr, "  ..", s) }
	}
	if _, err := store.Attach(r); err != nil {
		return fail(err)
	}
	res, err := r.Run(w, cfg)
	if err != nil {
		return fail(err)
	}
	base, err := r.Run(w, experiments.E2MCConfig(cfg.MAG))
	if err != nil {
		return fail(err)
	}
	printResult(stdout, res, base)
	return 0
}

func printResult(out io.Writer, res, base experiments.RunResult) {
	fmt.Fprintf(out, "%s × %s\n", res.Workload, res.Config.Name)
	fmt.Fprintf(out, "  compression: raw CR %.2f, effective CR %.2f, %d blocks (%d lossy, %d raw)\n",
		res.Comp.RawRatio(), res.Comp.EffectiveRatio(),
		res.Comp.Blocks, res.Comp.LossyBlocks, res.Comp.Uncompressed)
	tr := res.Trace
	fmt.Fprintf(out, "  trace: %d kernels, %d warps, %d accesses (r %d / w %d), %d bursts, %.2f MB\n",
		tr.Kernels, tr.Warps, tr.Accesses, tr.Reads, tr.Writes, tr.Bursts, float64(tr.Bytes)/1e6)
	fmt.Fprintf(out, "  compressed-block distribution (bytes above a multiple of MAG):\n")
	for x, cnt := range res.Comp.AboveMAG {
		if cnt == 0 {
			continue
		}
		pct := 100 * float64(cnt) / float64(res.Comp.Blocks)
		fmt.Fprintf(out, "    %2dB %7d blocks (%5.1f%%)\n", x, cnt, pct)
	}
	fmt.Fprintf(out, "  error: %.4f%%\n", res.ErrorFrac*100)
	fmt.Fprintf(out, "  time: %.1f µs (%.0f SM cycles)\n", res.Sim.TimeNs/1e3, res.Sim.SMCycles)
	fmt.Fprintf(out, "  traffic: %d bursts (%d metadata), %.2f MB data (row hits %d / misses %d)\n",
		res.Sim.DramBursts, res.Sim.DramMetaBursts,
		float64(res.Sim.DramBytes)/1e6, res.Sim.RowHits, res.Sim.RowMisses)
	fmt.Fprintf(out, "  L2: %d hits, %d misses, %d writebacks; MDC: %d hits, %d misses\n",
		res.Sim.L2.Hits, res.Sim.L2.Misses, res.Sim.L2.Writebacks,
		res.Sim.MC.MDCHits, res.Sim.MC.MDCMisses)
	e := res.Energy
	fmt.Fprintf(out, "  energy: %.3f mJ (static %.3f, core %.3f, L2 %.3f, DRAM %.3f, codec %.5f)\n",
		e.TotalMJ(), e.StaticMJ, e.CoreMJ, e.L2MJ, e.DramMJ, e.CodecMJ)
	if res.Config.Name != base.Config.Name {
		fmt.Fprintf(out, "  vs %s: speedup %.3f, bandwidth %.3f, energy %.3f, EDP %.3f\n",
			base.Config.Name,
			base.Sim.TimeNs/res.Sim.TimeNs,
			float64(res.Sim.DramBytes)/float64(base.Sim.DramBytes),
			res.Energy.TotalMJ()/base.Energy.TotalMJ(),
			res.Energy.EDP(res.Sim.TimeNs)/base.Energy.EDP(base.Sim.TimeNs))
	}
}
