package main

// The metric catalogue: every metric the benchmark reports, by name, with its
// unit. BENCHMARK.json at the repository root declares the same set (with the
// regression bounds of the end-to-end metrics); TestBenchmarkJSON keeps the
// two identical.
//
// Every workload reports every metric of a kind, so the end-to-end metrics are
// phrased per operation: an operation is one evaluation cell on the matrix
// workloads and one HTTP request on slcd-mix. Per-layer metrics of a layer a
// workload never enters read 0; those are shares, rates and counts, never
// wall-clock times, so a 0 always means "not on this workload's path".

// runSeconds is how long one run measures unless -seconds says otherwise.
const runSeconds = 20

// metricDef is one catalogue entry.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off. The bounds come from bench/CALIBRATION.md: on the calibration host the
// interquartile spread of every timing reaches 0.1–0.29 of its median over
// ten seeds, because the host's speed drifts, so each bound is the largest
// one allowed.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// codecNames are the registered non-identity codecs; TestCodecCatalogue pins
// the list to the registry.
var codecNames = []string{
	"bdi", "bpc", "cpack", "e2mc", "fpc", "hycomp", "lz4b",
	"sz-linear", "sz-lorenzo", "tslc-opt", "tslc-pred", "tslc-simp", "zcd",
}

// spanNames are the layer boundaries the traced run records, in the order a
// cell or request passes them.
var spanNames = []string{
	"experiments.cell",
	"experiments.golden",
	"serving.codecs",
	"pipeline.new",
	"workloads.run",
	"pipeline.sync",
	"metrics.eval",
	"trace.collect",
	"sim.new",
	"sim.replay",
	"power.compute",
	"resultstore.put",
	"experiments.warm",
	"serving.request",
	"serving.handler",
}

// perLayer returns the per-layer catalogue, reported by traced runs. Each
// entry names the direction in which the layer does better; the README maps
// each to the end-to-end metric and workload it should move.
func perLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		lo("setup.table_train_s", "s"),
		lo("setup.golden_frac", "frac"),
		lo("runtime.gc_pause_ms", "ms"),
		lo("runtime.alloc_mb", "MB"),
		lo("runtime.gc_cycles", "count"),
		lo("trace.overhead_frac", "frac"),
		lo("trace.spans", "count"),
	}
	for _, s := range spanNames {
		defs = append(defs, lo("self."+s, "frac"))
	}
	defs = append(defs,
		hi("experiments.stage_coverage", "frac"),
		hi("experiments.cells", "count"),
		lo("pipeline.blocks", "count"),
		hi("pipeline.sync_mb_s", "MB/s"),
		hi("pipeline.lossy_frac", "frac"),
		lo("pipeline.uncompressed_frac", "frac"),
	)
	for _, c := range codecNames {
		defs = append(defs, hi("compress."+c+".sync_mb_s", "MB/s"), hi("compress."+c+".eff_cr", "x"))
	}
	return append(defs,
		lo("trace.accesses", "count"),
		lo("sim.events", "count"),
		hi("sim.mevents_per_s", "Mevents/s"),
		lo("sim.sm_cycles", "cycles"),
		lo("sim.dram_bursts", "count"),
		lo("sim.meta_bursts", "count"),
		hi("sim.row_hit_rate", "frac"),
		hi("sim.l2_hit_rate", "frac"),
		hi("sim.mdc_hit_rate", "frac"),
		hi("model.gm_speedup_opt", "x"),
		lo("model.gm_error_pct_opt", "%"),
		hi("model.eff_cr_gm", "x"),
		lo("resultstore.puts", "count"),
		lo("resultstore.bytes_written", "bytes"),
		hi("resultstore.hits", "count"),
		hi("resultstore.warm_cells_per_s", "1/s"),
		hi("serving.core_compress_mb_s", "MB/s"),
		hi("serving.core_decompress_mb_s", "MB/s"),
		hi("serving.core_evaluate_mb_s", "MB/s"),
		lo("serving.transport_frac", "frac"),
		lo("serving.rejected_429", "count"),
		lo("serving.table_retrains", "count"),
		lo("loadgen.late_frac", "frac"),
		lo("loadgen.backlog_max", "count"),
	)
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	Name string
	Why  string
	run  func(o options, tr *tracer, rep *report) error
}

// benchWorkloads lists the workloads in the order `-workload all` runs them.
func benchWorkloads() []workloadDef {
	return []workloadDef{
		{"fig7-cold", "the paper's headline Figure-7 matrix from a cold runner and store: every layer, simulator-heavy, plus a warm store re-read", fig7Cold.run},
		{"fig9-mag", "FWT/SRAD at 16 B and 64 B MAG on the sharded simulator: burst geometry other than 32 B, ~70% simulator", fig9MAG.run},
		{"compress-sweep", "every codec over the paper and HPC workloads, compression only: codecs and Sync busy, simulator bypassed", compressSweep.run},
		{"slcd-mix", "HTTP traffic to the serving tier from 2 closed-loop callers: JSON, admission and per-request codec work, no kernel or simulator", runSlcd},
	}
}
