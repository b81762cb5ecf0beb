package experiments

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/gpu/sim"
	"repro/internal/metrics"
	"repro/internal/slc"
	"repro/internal/workloads"
)

// The full evaluation matrix takes minutes; these tests exercise the runner
// and harness logic on single cells and assert the directional properties
// the paper's figures rest on. `go test -short` skips the heavier ones.

func tpWorkload(t *testing.T) workloads.Workload {
	t.Helper()
	w, err := workloads.ByName("TP")
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRunnerMemoises(t *testing.T) {
	if testing.Short() {
		t.Skip("runner integration in -short mode")
	}
	r := NewRunner()
	runs := 0
	r.Progress = func(s string) {
		if strings.HasPrefix(s, "run:") {
			runs++
		}
	}
	w := tpWorkload(t)
	cfg := E2MCConfig(compress.MAG32)
	if _, err := r.Run(w, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(w, cfg); err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Errorf("executed %d runs, want 1 (memoised)", runs)
	}
}

func TestGoldenHasZeroError(t *testing.T) {
	if testing.Short() {
		t.Skip("runner integration in -short mode")
	}
	r := NewRunner()
	w := tpWorkload(t)
	res, err := r.Run(w, BaselineConfig("raw", compress.MAG32))
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorFrac != 0 {
		t.Errorf("uncompressed run has error %v", res.ErrorFrac)
	}
}

func TestLosslessRunsHaveZeroError(t *testing.T) {
	if testing.Short() {
		t.Skip("runner integration in -short mode")
	}
	r := NewRunner()
	w := tpWorkload(t)
	for _, cfg := range []Config{
		BaselineConfig("bdi", compress.MAG32),
		E2MCConfig(compress.MAG32),
	} {
		res, err := r.Run(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.ErrorFrac != 0 {
			t.Errorf("%s: lossless run has error %v", cfg.Name, res.ErrorFrac)
		}
	}
}

func TestTSLCDirectionalProperties(t *testing.T) {
	if testing.Short() {
		t.Skip("runner integration in -short mode")
	}
	r := NewRunner()
	w := tpWorkload(t)
	base, err := r.Run(w, E2MCConfig(compress.MAG32))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := r.Run(w, TSLCConfig(slc.OPT, compress.MAG32, DefaultThresholdBits))
	if err != nil {
		t.Fatal(err)
	}
	if opt.Sim.DramBytes >= base.Sim.DramBytes {
		t.Errorf("TSLC traffic %d ≥ E2MC %d", opt.Sim.DramBytes, base.Sim.DramBytes)
	}
	if opt.Sim.TimeNs >= base.Sim.TimeNs {
		t.Errorf("TSLC time %.0f ≥ E2MC %.0f", opt.Sim.TimeNs, base.Sim.TimeNs)
	}
	if opt.ErrorFrac <= 0 || opt.ErrorFrac > 0.10 {
		t.Errorf("TSLC error %.4f outside (0, 10%%]", opt.ErrorFrac)
	}
	if opt.Comp.EffectiveRatio() <= base.Comp.EffectiveRatio() {
		t.Errorf("TSLC effective CR %.2f not above E2MC %.2f",
			opt.Comp.EffectiveRatio(), base.Comp.EffectiveRatio())
	}
	if opt.Comp.LossyBlocks == 0 {
		t.Error("TSLC produced no lossy blocks")
	}
	// Conservation: the DRAM can only move bursts the trace requested (the
	// L2 filters; writebacks reuse the write accesses' burst counts) plus
	// metadata fetches.
	for _, res := range []RunResult{base, opt} {
		limit := res.Trace.Bursts + res.Sim.MC.MetaBursts
		if res.Sim.DramBursts > limit {
			t.Errorf("%s: DRAM moved %d bursts > trace+metadata %d",
				res.Config.Name, res.Sim.DramBursts, limit)
		}
	}
}

func TestSimConfigPerCodec(t *testing.T) {
	e := SimConfig(E2MCConfig(compress.MAG32))
	if e.MC.CompressCycles != 46 || e.MC.DecompressCycles != 20 {
		t.Errorf("E2MC latencies %d/%d", e.MC.CompressCycles, e.MC.DecompressCycles)
	}
	s := SimConfig(TSLCConfig(slc.OPT, compress.MAG32, 128))
	if s.MC.CompressCycles != 60 || s.MC.DecompressCycles != 20 {
		t.Errorf("TSLC latencies %d/%d", s.MC.CompressCycles, s.MC.DecompressCycles)
	}
	raw := SimConfig(BaselineConfig("raw", compress.MAG32))
	if raw.MC.CompressCycles != 0 || raw.MC.DecompressCycles != 0 {
		t.Errorf("raw latencies %d/%d", raw.MC.CompressCycles, raw.MC.DecompressCycles)
	}
	// MAG sensitivity keeps aggregate peak bandwidth constant.
	for _, mag := range []compress.MAG{compress.MAG16, compress.MAG32, compress.MAG64} {
		sc := SimConfig(E2MCConfig(mag))
		agg := float64(sc.MC.Controllers*sc.MC.ChannelsPerMC) * sc.MC.Dram.PeakBandwidthGBs(int(mag))
		if agg < 190 || agg > 195 {
			t.Errorf("MAG %s: peak bandwidth %.1f GB/s, want ≈192.4", mag, agg)
		}
	}
}

// TestRunAllMatchesSerial pins the RunAll contract: fanning cells across a
// worker pool yields results identical to serial Run calls, in input order.
func TestRunAllMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runner integration in -short mode")
	}
	w := tpWorkload(t)
	cells := []Cell{
		{w, E2MCConfig(compress.MAG32)},
		{w, TSLCConfig(slc.OPT, compress.MAG32, DefaultThresholdBits)},
		{w, TSLCConfig(slc.SIMP, compress.MAG32, DefaultThresholdBits)},
		{w, BaselineConfig("bdi", compress.MAG32)},
		{w, BaselineConfig("raw", compress.MAG32)},
		{w, E2MCConfig(compress.MAG32)}, // duplicate cell: memoised, not re-run
	}

	serial := NewRunner()
	want := make([]RunResult, len(cells))
	for i, c := range cells {
		res, err := serial.Run(c.Workload, c.Config)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	par := NewRunner()
	runs := 0
	par.Progress = func(s string) {
		if strings.HasPrefix(s, "run:") {
			runs++
		}
	}
	got, err := par.RunAll(cells, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cells) {
		t.Fatalf("RunAll returned %d results for %d cells", len(got), len(cells))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("cell %d (%s): parallel result differs from serial\nparallel: %+v\nserial:   %+v",
				i, cells[i].Config.Name, got[i], want[i])
		}
	}
	if runs != len(cells)-1 {
		t.Errorf("executed %d runs, want %d (duplicate cell must be memoised)", runs, len(cells)-1)
	}
}

// TestRunAllParallelSyncMatchesSerial layers every level of parallelism:
// cell fan-out, in-pipeline block fan-out and the sharded simulator
// streamed kernel by kernel alongside the workload (SimWorkers > 1) must
// still reproduce the serial results bitwise.
func TestRunAllParallelSyncMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runner integration in -short mode")
	}
	w := tpWorkload(t)
	cells := []Cell{
		{w, E2MCConfig(compress.MAG32)},
		{w, TSLCConfig(slc.OPT, compress.MAG32, DefaultThresholdBits)},
	}
	serial := NewRunner()
	par := NewRunner()
	par.SyncWorkers = 4
	par.SimWorkers = 2
	got, err := par.RunAll(cells, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		want, err := serial.Run(c.Workload, c.Config)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("cell %d (%s): parallel-sync result differs from serial", i, c.Config.Name)
		}
	}
}

// TestRunAllReportsCellErrors checks that a bad cell surfaces in the joined
// error while good cells still produce results.
func TestRunAllReportsCellErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("runner integration in -short mode")
	}
	w := tpWorkload(t)
	cells := []Cell{
		{w, Config{Name: "BOGUS@32B", Codec: "bogus", MAG: compress.MAG32}},
		{w, BaselineConfig("raw", compress.MAG32)},
	}
	r := NewRunner()
	got, err := r.RunAll(cells, 2)
	if err == nil {
		t.Fatal("RunAll with an unknown codec returned no error")
	}
	if !strings.Contains(err.Error(), "bogus") {
		t.Errorf("error does not name the bad codec: %v", err)
	}
	if got[1].Workload == "" {
		t.Error("good cell produced no result alongside the failing one")
	}
}

// midRunFailure is a workload whose golden run succeeds but whose timed
// run records a few kernels and then fails: with an error, with a panic, or
// by handing the simulator a kernel it cannot replay (a nil one, standing in
// for a broken model invariant) and recording on past a full stream.
type midRunFailure struct {
	name string
	mode string // "error", "panic" or "sim-panic"
}

func (f midRunFailure) Info() workloads.Info {
	return workloads.Info{Name: f.name, Metric: metrics.MRE}
}

func (f midRunFailure) Run(ctx *workloads.Ctx) ([]float64, error) {
	if ctx.Rec == nil {
		return []float64{1, 2, 3}, nil
	}
	kernels := 3
	if f.mode == "sim-panic" {
		ctx.Rec.Sink(nil)
		kernels = 200
	}
	for k := 0; k < kernels; k++ {
		ctx.Rec.BeginKernel("k", 64)
		for w := 0; w < 64; w++ {
			for i := 0; i < 20; i++ {
				ctx.Rec.Access(w, uint64((k*64+w)*20+i)*128, i%4 == 0, 2)
			}
		}
	}
	switch f.mode {
	case "panic":
		panic("workload panicked mid-run")
	case "error":
		return nil, errors.New("workload failed mid-run")
	}
	return []float64{1, 2, 3}, nil
}

// TestStreamedRunFailureIsCellError: a workload failing or panicking
// partway through a cell whose replay streams (SimWorkers 2), or the
// simulator goroutine panicking under it, must surface as that cell's
// error, and the simulator goroutine fed by the kernel stream must not
// outlive the cell.
func TestStreamedRunFailureIsCellError(t *testing.T) {
	for _, tc := range []struct {
		f    midRunFailure
		want string
	}{
		{midRunFailure{"FAIL-ERR", "error"}, "failed mid-run"},
		{midRunFailure{"FAIL-PANIC", "panic"}, "panic: workload panicked mid-run"},
		{midRunFailure{"FAIL-SIM", "sim-panic"}, "panic: runtime error"},
	} {
		before := runtime.NumGoroutine()
		r := NewRunner()
		r.SimWorkers = 2
		_, err := r.RunAll([]Cell{{tc.f, BaselineConfig("raw", compress.MAG32)}}, 1)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: RunAll error = %v, want one containing %q", tc.f.name, err, tc.want)
		}
		waitGoroutines(t, before)
	}
}

// waitGoroutines waits for the goroutine count to fall back to baseline:
// goroutines stopped by a call finish exiting asynchronously after it.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: a goroutine leaked", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestNamedConfig(t *testing.T) {
	cfg, err := NamedConfig("tslc-opt", compress.MAG32, 16*8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "TSLC-OPT@32B/t16B" || cfg.Codec != "tslc-opt" || cfg.ThresholdBits != 128 {
		t.Errorf("NamedConfig lossy = %+v", cfg)
	}
	cfg, err = NamedConfig("bdi", compress.MAG64, 16*8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "BDI@64B" || cfg.ThresholdBits != 0 {
		t.Errorf("NamedConfig lossless = %+v", cfg)
	}
	if _, err := NamedConfig("nope", compress.MAG32, 0, 0); err == nil {
		t.Error("NamedConfig accepted an unknown codec")
	}
	cfg, err = NamedConfig("sz-lorenzo", compress.MAG32, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "SZ-LORENZO@32B/eb1e-03" || cfg.ErrorBound != DefaultErrorBound || cfg.ThresholdBits != 0 {
		t.Errorf("NamedConfig bounded default = %+v", cfg)
	}
	cfg, err = NamedConfig("sz-linear", compress.MAG32, 0, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "SZ-LINEAR@32B/eb1e-05" || cfg.ErrorBound != 1e-5 {
		t.Errorf("NamedConfig bounded explicit = %+v", cfg)
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := NamedConfig("sz-lorenzo", compress.MAG32, 0, bad); err == nil {
			t.Errorf("NamedConfig accepted bound %v", bad)
		}
	}
	if BoundedConfig("sz-lorenzo", compress.MAG32, 0) != cfgMust(t, "sz-lorenzo", 0) {
		t.Error("BoundedConfig(0) differs from NamedConfig default")
	}
}

// cfgMust is NamedConfig for bounded codecs at 32 B MAG, failing the test on
// error.
func cfgMust(t *testing.T, codec string, bound float64) Config {
	t.Helper()
	cfg, err := NamedConfig(codec, compress.MAG32, 0, bound)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestConfigNames pins every Config constructor to NamedConfig: for each
// registered codec at each MAG, the constructor that applies to it must
// build the identical Config (cell names are result-store key material).
// The literal names pin the format itself.
func TestConfigNames(t *testing.T) {
	variants := map[string]slc.Variant{}
	for _, v := range []slc.Variant{slc.SIMP, slc.PRED, slc.OPT} {
		variants[slc.RegistryName(v)] = v
	}
	for _, codec := range compress.Names() {
		info, _ := compress.Lookup(codec)
		for _, mag := range []compress.MAG{compress.MAG16, compress.MAG32, compress.MAG64} {
			want, err := NamedConfig(codec, mag, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			var got []Config
			switch {
			case info.LossyBounded:
				got = append(got, BoundedConfig(codec, mag, 0))
			case info.Lossy:
				v, ok := variants[codec]
				if !ok {
					t.Errorf("lossy codec %q has no Config constructor", codec)
					continue
				}
				got = append(got, TSLCConfig(v, mag, DefaultThresholdBits))
			default:
				got = append(got, BaselineConfig(codec, mag))
				if codec == "e2mc" {
					got = append(got, E2MCConfig(mag))
				}
			}
			for _, g := range got {
				if g != want {
					t.Errorf("%s@%s: constructor built %+v, NamedConfig %+v", codec, mag, g, want)
				}
			}
		}
	}
	for cfg, want := range map[Config]string{
		E2MCConfig(compress.MAG32):                       "E2MC@32B",
		TSLCConfig(slc.OPT, compress.MAG64, 256):         "TSLC-OPT@64B/t32B",
		BaselineConfig("bdi", compress.MAG16):            "BDI@16B",
		BoundedConfig("sz-linear", compress.MAG32, 1e-5): "SZ-LINEAR@32B/eb1e-05",
	} {
		if cfg.Name != want {
			t.Errorf("name %q, want %q", cfg.Name, want)
		}
	}
}

func TestTablesRender(t *testing.T) {
	t2 := TableII(sim.DefaultConfig())
	for _, want := range []string{"16", "822", "GDDR5", "192.4", "768 KB"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table II missing %q:\n%s", want, t2)
		}
	}
	t3 := TableIII()
	for _, want := range []string{"JM", "SRAD2", "Miss rate", "#AR"} {
		if !strings.Contains(t3, want) {
			t.Errorf("Table III missing %q", want)
		}
	}
	t1 := TableI()
	if !strings.Contains(t1, "Compressor") || !strings.Contains(t1, "GTX580") {
		t.Error("Table I rendering incomplete")
	}
}

func TestFigure1SingleCodec(t *testing.T) {
	if testing.Short() {
		t.Skip("compression sweep in -short mode")
	}
	r := NewRunner()
	w := tpWorkload(t)
	st, err := r.CompressionOnly(w, BaselineConfig("bdi", compress.MAG32))
	if err != nil {
		t.Fatal(err)
	}
	if st.RawRatio() < st.EffectiveRatio() {
		t.Errorf("raw %.2f < effective %.2f", st.RawRatio(), st.EffectiveRatio())
	}
}

func TestVariantsApproximateSimilarBlockCounts(t *testing.T) {
	// Paper §V-A: the three TSLC variants show only slight speedup
	// variation "because all of them roughly approximate the same number of
	// blocks by the same amount" — the decision logic is shared; only
	// TSLC-OPT's extra nodes shift a few block decisions.
	if testing.Short() {
		t.Skip("runner integration in -short mode")
	}
	r := NewRunner()
	w := tpWorkload(t)
	var counts []int64
	for _, v := range []slc.Variant{slc.SIMP, slc.PRED, slc.OPT} {
		res, err := r.Run(w, TSLCConfig(v, compress.MAG32, DefaultThresholdBits))
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, res.Comp.LossyBlocks)
	}
	// Only *roughly* the same: the paper itself notes that decompressed
	// blocks differ between schemes, so "their further compressibility and
	// the blocks which depend on them may differ" — SIMP's zero-fill feeds
	// back into later syncs. Assert the counts stay within 15%.
	lo, hi := counts[0], counts[0]
	for _, c := range counts[1:] {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if float64(hi-lo) > 0.15*float64(hi) {
		t.Errorf("lossy block counts diverge >15%%: SIMP %d, PRED %d, OPT %d",
			counts[0], counts[1], counts[2])
	}
}
