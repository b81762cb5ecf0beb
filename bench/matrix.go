package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/compress"
	"repro/internal/experiments"
	"repro/internal/gpu/device"
	"repro/internal/gpu/sim"
	"repro/internal/gpu/trace"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/resultstore"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// matrixSpec is a workload made of evaluation cells. One pass builds a fresh
// Runner, sets it up (golden runs and entropy tables of the cells' workloads)
// and runs every cell once, in a seed-shuffled order, on a pool of workers
// calling Runner.Run (or Runner.CompressionOnly) — the pool RunAll and
// CompressAll use, written out so that each cell can be timed.
type matrixSpec struct {
	cells func() ([]experiments.Cell, error)
	// passes is the number of passes a run of the default length makes, so
	// every run measures the same work unless the host is slow (passBudget).
	passes int
	// full cells run Runner.Run, and their set-up includes the golden runs;
	// the others run the compression-only path.
	full       bool
	workers    int // cell workers
	simWorkers int // Runner.SimWorkers
	// store gives every pass a fresh result store and ends the pass with a
	// warm re-read of every cell by a second Runner on the same store.
	store bool
}

// passBudget bounds a run's passes: a pass starts only if, at the speed of
// the pass before it, it ends within passBudget × --seconds of the first. A
// host slow enough to miss that makes fewer passes rather than a longer run,
// so the runs of a whole calibration keep to their time limit.
const passBudget = 1.75

var fig7Cold = matrixSpec{
	cells:   func() ([]experiments.Cell, error) { return experiments.Fig7Cells(), nil },
	passes:  2,
	full:    true,
	workers: 2,
	store:   true,
}

var fig9MAG = matrixSpec{
	cells:      fig9Cells,
	passes:     2,
	full:       true,
	workers:    1,
	simWorkers: 2,
}

var compressSweep = matrixSpec{
	cells:   sweepCells,
	passes:  1,
	workers: 2,
}

// fig9Cells are Figure 9's off-32 B cells of the three workloads where the
// simulator does most of the work.
func fig9Cells() ([]experiments.Cell, error) {
	var cells []experiments.Cell
	for _, name := range []string{"FWT", "SRAD1", "SRAD2"} {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, mag := range []compress.MAG{compress.MAG16, compress.MAG64} {
			base, err := experiments.NamedConfig("e2mc", mag, 0, 0)
			if err != nil {
				return nil, err
			}
			opt, err := experiments.NamedConfig("tslc-opt", mag, mag.Bits()/2, 0)
			if err != nil {
				return nil, err
			}
			cells = append(cells, experiments.Cell{Workload: w, Config: base}, experiments.Cell{Workload: w, Config: opt})
		}
	}
	return cells, nil
}

// floatSweepCodecs are the codecs the sweep runs over the HPC float fields.
var floatSweepCodecs = []string{"sz-lorenzo", "sz-linear", "fpc", "e2mc", "lz4b"}

// sweepCells are every codec over the paper's workloads plus the float
// codecs over the HPC fields, at 32 B MAG.
func sweepCells() ([]experiments.Cell, error) {
	var cells []experiments.Cell
	add := func(ws []workloads.Workload, codecs []string) error {
		for _, w := range ws {
			for _, name := range codecs {
				cfg, err := experiments.NamedConfig(name, compress.MAG32, 0, 0)
				if err != nil {
					return err
				}
				cells = append(cells, experiments.Cell{Workload: w, Config: cfg})
			}
		}
		return nil
	}
	if err := add(workloads.Registry(), codecNames); err != nil {
		return nil, err
	}
	if err := add(workloads.FloatRegistry(), floatSweepCodecs); err != nil {
		return nil, err
	}
	return cells, nil
}

func cellKey(c experiments.Cell) string { return c.Workload.Info().Name + "|" + c.Config.Name }

// cellsFor returns the workload's cells; a tiny run keeps one cheap cell.
func (m matrixSpec) cellsFor(o options) ([]experiments.Cell, error) {
	cells, err := m.cells()
	if err != nil || !o.tiny {
		return cells, err
	}
	for _, c := range cells {
		if c.Workload.Info().Name == "TP" {
			return []experiments.Cell{c}, nil
		}
	}
	return cells[:1], nil
}

// profiles are the distinct workloads of the cells, in first-use order.
func profiles(cells []experiments.Cell) []workloads.Workload {
	var out []workloads.Workload
	seen := make(map[string]bool)
	for _, c := range cells {
		if name := c.Workload.Info().Name; !seen[name] {
			seen[name] = true
			out = append(out, c.Workload)
		}
	}
	return out
}

// setupTimes is one set-up's wall time and its golden and table parts.
type setupTimes struct{ total, golden, tables float64 }

// setup prepares a fresh runner: golden runs and entropy tables.
func (m matrixSpec) setup(r *experiments.Runner, ws []workloads.Workload) (setupTimes, error) {
	var st setupTimes
	start := time.Now()
	for _, w := range ws {
		if m.full {
			t := time.Now()
			if _, err := r.Golden(w); err != nil {
				return st, err
			}
			st.golden += time.Since(t).Seconds()
		}
		t := time.Now()
		if _, err := r.Table(w); err != nil {
			return st, err
		}
		st.tables += time.Since(t).Seconds()
	}
	st.total = time.Since(start).Seconds()
	return st, nil
}

func (m matrixSpec) newRunner() *experiments.Runner {
	r := experiments.NewRunner()
	r.SimWorkers = m.simWorkers
	return r
}

// runCell runs one cell the way RunAll or CompressAll would.
func (m matrixSpec) runCell(r *experiments.Runner, c experiments.Cell) (res experiments.RunResult, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	if m.full {
		return r.Run(c.Workload, c.Config)
	}
	comp, err := r.CompressionOnly(c.Workload, c.Config)
	return experiments.RunResult{Workload: c.Workload.Info().Name, Config: c.Config, Comp: comp}, err
}

// pool runs fn(0..n-1) on the given number of workers.
func pool(n, workers int, fn func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// canonical is the byte form results are compared in: two results are
// bitwise-equal exactly when their encodings are.
func canonical(res experiments.RunResult) string {
	b, err := json.Marshal(res)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return string(b)
}

// passOut is what one untraced pass measured.
type passOut struct {
	setup   setupTimes
	wall    float64   // seconds the cells took
	lat     []float64 // per-cell wall time, ms
	results []experiments.RunResult
	puts    int64 // store records the cold cells wrote
	bytes   int64
	// store is the pass's result store, nil without one; cleanup removes it.
	store   *resultstore.Store
	cleanup func()
}

// pass runs every cell once on a fresh runner (and store), then re-reads the
// store warm. Failed cells and warm/cold mismatches go to rep.
func (m matrixSpec) pass(cells []experiments.Cell, rep *report) (passOut, error) {
	out := passOut{cleanup: func() {}}
	r := m.newRunner()
	var st *resultstore.Store
	if m.store {
		dir, err := os.MkdirTemp("", "slc-bench-store-")
		if err != nil {
			return out, err
		}
		out.cleanup = func() { os.RemoveAll(dir) }
		if st, err = resultstore.Open(dir, resultstore.Options{}); err != nil {
			return out, err
		}
		r.Store = st
		out.store = st
	}
	var err error
	if out.setup, err = m.setup(r, profiles(cells)); err != nil {
		return out, fmt.Errorf("set-up: %w", err)
	}
	out.results = make([]experiments.RunResult, len(cells))
	errs := make([]error, len(cells))
	lat := make([]float64, len(cells))
	start := time.Now()
	pool(len(cells), m.workers, func(i int) {
		t := time.Now()
		out.results[i], errs[i] = m.runCell(r, cells[i])
		lat[i] = float64(time.Since(t).Nanoseconds()) / 1e6
	})
	out.wall = time.Since(start).Seconds()
	out.lat = lat
	for i, err := range errs {
		rep.check(err == nil, "%s: %v", cellKey(cells[i]), err)
	}
	if st == nil {
		return out, nil
	}
	out.puts = st.Stats().Puts
	out.bytes = dirBytes(st.Dir())
	warmRunner := m.newRunner()
	warmRunner.Store = st
	warm, werr := warmRunner.RunAll(cells, m.workers)
	rep.check(werr == nil, "warm re-read: %v", werr)
	for i := range cells {
		rep.check(errs[i] != nil || canonical(warm[i]) == canonical(out.results[i]),
			"%s: warm re-read differs from the cold result", cellKey(cells[i]))
	}
	return out, nil
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// shuffled returns the cells in a seed-determined order.
func shuffled(cells []experiments.Cell, rng *rand.Rand) []experiments.Cell {
	out := make([]experiments.Cell, len(cells))
	for i, j := range rng.Perm(len(cells)) {
		out[i] = cells[j]
	}
	return out
}

func (m matrixSpec) run(o options, tr *tracer, rep *report) error {
	cells, err := m.cellsFor(o)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(o.seed))
	if tr != nil {
		return m.traced(shuffled(cells, rng), tr, rep)
	}
	passes := max(1, int(math.Round(float64(m.passes)*o.seconds/runSeconds)))
	if o.tiny {
		passes = 1
	}
	var setups, rss, lat []float64
	reference := make(map[string]string)
	start := time.Now()
	var last time.Duration
	for pass := 1; pass <= passes; pass++ {
		if pass > 1 && (time.Since(start)+last).Seconds() > passBudget*o.seconds {
			break
		}
		passStart := time.Now()
		order := shuffled(cells, rng)
		resetPeakRSS()
		p, err := m.pass(order, rep)
		rss = append(rss, peakRSSMB())
		p.cleanup()
		if err != nil {
			return err
		}
		setups = append(setups, p.setup.total)
		for i, c := range order {
			key, got := cellKey(c), canonical(p.results[i])
			if want, ok := reference[key]; ok {
				rep.check(got == want, "%s: pass %d differs from pass 1", key, pass)
			} else {
				reference[key] = got
			}
		}
		lat = append(lat, p.lat...)
		if pass == 1 {
			noteModel(rep, p.results)
		}
		last = time.Since(passStart)
	}
	// setup_s is a median over at least three set-ups.
	for len(setups) < 3 && !o.tiny {
		st, err := m.setup(m.newRunner(), profiles(cells))
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, st.total)
	}
	rep.set("setup_s", median(setups))
	rep.set("peak_rss_mb", median(rss))
	// Throughput while every worker is busy (workers / mean cell time): the
	// ragged end of a pass depends on the seed's order, not on the code.
	rep.set("ops_per_s", float64(m.workers)/(mean(lat)/1e3))
	// Every cell run of every pass counts. A cell's fastest pass would be
	// an extreme of two or three samples, which swings with the moment the
	// host happened to be quiet.
	rep.set("op_p50_ms", percentile(lat, 50))
	rep.set("op_p90_ms", percentile(lat, 90))
	return nil
}

// noteModel reports the model's headline numbers beside the paper's. They
// check the reproduction against the paper's reported values, not against
// hardware.
func noteModel(rep *report, results []experiments.RunResult) {
	sp, errPct, effCR := modelNumbers(results)
	if sp > 0 {
		rep.note("model: TSLC-OPT vs E2MC speed-up GM %.4f (paper 1.097 at 32 B), error GM %.4f %% (paper 0.99 %%)", sp, errPct)
	}
	rep.note("model: effective compression ratio GM %.4f over %d cells", effCR, len(results))
}

// modelNumbers are the simulated TSLC-OPT speed-up over E2MC at the same
// workload and MAG (GM), TSLC-OPT's application error in % (GM), and the GM
// effective compression ratio of every cell.
func modelNumbers(results []experiments.RunResult) (gmSpeedup, gmErrPct, effCR float64) {
	base := make(map[string]experiments.RunResult)
	for _, r := range results {
		if r.Config.Codec == "e2mc" {
			base[fmt.Sprintf("%s|%d", r.Workload, r.Config.MAG)] = r
		}
	}
	var speedups, errs, crs []float64
	for _, r := range results {
		crs = append(crs, r.Comp.EffectiveRatio())
		if r.Config.Codec != "tslc-opt" || r.Sim.TimeNs == 0 {
			continue
		}
		if b, ok := base[fmt.Sprintf("%s|%d", r.Workload, r.Config.MAG)]; ok {
			speedups = append(speedups, b.Sim.TimeNs/r.Sim.TimeNs)
			errs = append(errs, r.ErrorFrac*100)
		}
	}
	if len(speedups) > 0 {
		gmSpeedup, gmErrPct = stats.Geomean(speedups), stats.Geomean(errs)
	}
	return gmSpeedup, gmErrPct, stats.Geomean(crs)
}

// layerAcc accumulates the per-layer work the traced cells did.
type layerAcc struct {
	mu         sync.Mutex
	syncBlocks map[string]int64   // by codec that ran
	syncSec    map[string]float64 // by codec that ran
	events     int64
}

func (a *layerAcc) addSync(codec string, blocks int, d time.Duration) {
	a.mu.Lock()
	a.syncBlocks[codec] += int64(blocks)
	a.syncSec[codec] += d.Seconds()
	a.mu.Unlock()
}

// syncCodecs names the codecs a configuration's Sync runs: the one for
// safe-to-approximate regions and the one for exact regions ("" for none).
func syncCodecs(cfg experiments.Config) (approx, exact string) {
	info, ok := compress.Lookup(cfg.Codec)
	if !ok || info.Identity {
		return "", ""
	}
	if info.Lossy {
		return cfg.Codec, info.Base
	}
	return cfg.Codec, cfg.Codec
}

// compose runs one cell stage by stage through the public calls Runner.Run
// makes, with a span around each stage. The result must be bitwise-equal to
// Runner.Run's.
func (m matrixSpec) compose(tr *tracer, r *experiments.Runner, c experiments.Cell, st *resultstore.Store, acc *layerAcc) (res experiments.RunResult, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	w, cfg := c.Workload, c.Config
	info := w.Info()
	op := cellKey(c)
	root, end := tr.span(0, "experiments.cell", op)
	defer end()
	stage := func(name string) func() {
		_, e := tr.span(root, name, op)
		return e
	}

	var golden []float64
	if m.full {
		e := stage("experiments.golden")
		golden, err = r.Golden(w)
		e()
		if err != nil {
			return res, err
		}
	}
	e := stage("serving.codecs")
	lossless, lossy, err := experiments.RunnerCodecs(r, w, cfg)
	e()
	if err != nil {
		return res, err
	}
	e = stage("pipeline.new")
	dev := device.New()
	pl, err := pipeline.New(dev, cfg.MAG, lossless, lossy)
	var rec *trace.Recorder
	if err == nil {
		pl.SetWorkers(r.SyncWorkers)
		if m.full {
			rec = trace.NewRecorder(pl.BurstsFor)
		}
	}
	e()
	if err != nil {
		return res, err
	}

	approxCodec, exactCodec := syncCodecs(cfg)
	runID, e := tr.span(root, "workloads.run", op)
	sync := func(reg device.Region) {
		_, end := tr.span(runID, "pipeline.sync", op)
		t := time.Now()
		pl.Sync(reg)
		d := time.Since(t)
		end()
		codec := exactCodec
		if reg.SafeToApprox && lossy != nil {
			codec = approxCodec
		}
		if codec != "" {
			acc.addSync(codec, reg.Blocks(), d)
		}
	}
	out, err := w.Run(workloads.NewCtx(dev, rec, sync))
	e()
	if err != nil {
		return res, err
	}
	res = experiments.RunResult{Workload: info.Name, Config: cfg, Comp: pl.Stats()}
	if !m.full {
		return res, nil
	}

	e = stage("metrics.eval")
	res.ErrorFrac, err = metrics.Eval(info.Metric, golden, out)
	e()
	if err != nil {
		return res, err
	}
	e = stage("trace.collect")
	trc := rec.Trace()
	res.Trace = trc.Stats(cfg.MAG)
	e()
	e = stage("sim.new")
	sc := experiments.SimConfig(cfg)
	sc.Workers = r.SimWorkers
	s, err := sim.New(sc)
	e()
	if err != nil {
		return res, err
	}
	e = stage("sim.replay")
	res.Sim, err = s.Replay(trc)
	e()
	if err != nil {
		return res, err
	}
	acc.mu.Lock()
	acc.events += s.Events()
	acc.mu.Unlock()
	e = stage("power.compute")
	res.Energy, err = power.Compute(res.Sim, power.Default())
	e()
	if err != nil {
		return res, err
	}
	if st != nil {
		e = stage("resultstore.put")
		err = putResult(st, w, cfg, sc, res)
		e()
	}
	return res, err
}

// putResult stores a composed cell the way Runner.Run stores its own, under
// a kind of its own so the two never share a record.
func putResult(st *resultstore.Store, w workloads.Workload, cfg experiments.Config, sc sim.Config, res experiments.RunResult) error {
	key, err := st.Key("bench-cell", resultstore.Material{
		"workload": workloads.Fingerprint(w),
		"config":   cfg,
		"sim":      sc,
	})
	if err != nil {
		return err
	}
	return st.PutJSON(key, "bench-cell", res)
}

// traced runs one untraced pass as the reference, then the same cells
// composed stage by stage with spans, and derives the per-layer metrics.
func (m matrixSpec) traced(cells []experiments.Cell, tr *tracer, rep *report) error {
	ref, err := m.pass(cells, rep)
	defer ref.cleanup()
	if err != nil {
		return err
	}

	r := m.newRunner()
	setup, err := m.setup(r, profiles(cells))
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	rep.set("setup.table_train_s", setup.tables)
	rep.set("setup.golden_frac", ratio(setup.golden, setup.total))

	var st *resultstore.Store
	if m.store {
		dir, err := os.MkdirTemp("", "slc-bench-store-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if st, err = resultstore.Open(dir, resultstore.Options{}); err != nil {
			return err
		}
	}
	acc := &layerAcc{syncBlocks: make(map[string]int64), syncSec: make(map[string]float64)}
	results := make([]experiments.RunResult, len(cells))
	errs := make([]error, len(cells))
	start := time.Now()
	pool(len(cells), m.workers, func(i int) {
		results[i], errs[i] = m.compose(tr, r, cells[i], st, acc)
	})
	wall := time.Since(start).Seconds()
	for i, c := range cells {
		rep.check(errs[i] == nil && canonical(results[i]) == canonical(ref.results[i]),
			"%s: stage-composed result differs from Runner.Run's (err %v)", cellKey(c), errs[i])
	}
	rep.set("trace.overhead_frac", wall/ref.wall-1)

	if ref.store != nil {
		// The warm re-read of the reference pass's store, one span per cell.
		warmRunner := m.newRunner()
		warmRunner.Store = ref.store
		hits := ref.store.Stats().Hits
		start := time.Now()
		for _, c := range cells {
			_, end := tr.span(0, "experiments.warm", cellKey(c))
			_, err := warmRunner.Run(c.Workload, c.Config)
			end()
			rep.check(err == nil, "%s: warm re-read: %v", cellKey(c), err)
		}
		rep.set("resultstore.warm_cells_per_s", float64(len(cells))/time.Since(start).Seconds())
		rep.set("resultstore.puts", float64(ref.puts))
		rep.set("resultstore.bytes_written", float64(ref.bytes))
		rep.set("resultstore.hits", float64(ref.store.Stats().Hits-hits))
	}

	setLayerMetrics(rep, tr.snapshot(), results, acc)
	return nil
}

// setLayerMetrics derives the per-layer metrics of a traced matrix pass from
// its spans, its results and the work the cells did.
func setLayerMetrics(rep *report, spans []span, results []experiments.RunResult, acc *layerAcc) {
	self := setSelfShares(rep, spans)
	var cellS float64
	for _, s := range spans {
		if s.Name == "experiments.cell" {
			cellS += float64(s.dur()) / 1e9
		}
	}
	rep.set("experiments.stage_coverage", 1-ratio(self["experiments.cell"], cellS))
	rep.set("experiments.cells", float64(len(results)))

	var comp pipeline.Stats
	var simAgg sim.Result
	var accesses int
	effCR := make(map[string][]float64)
	for _, r := range results {
		comp.Blocks += r.Comp.Blocks
		comp.LossyBlocks += r.Comp.LossyBlocks
		comp.Uncompressed += r.Comp.Uncompressed
		effCR[r.Config.Codec] = append(effCR[r.Config.Codec], r.Comp.EffectiveRatio())
		accesses += r.Trace.Accesses
		simAgg.SMCycles += r.Sim.SMCycles
		simAgg.DramBursts += r.Sim.DramBursts
		simAgg.DramMetaBursts += r.Sim.DramMetaBursts
		simAgg.RowHits += r.Sim.RowHits
		simAgg.RowMisses += r.Sim.RowMisses
		simAgg.L2.Hits += r.Sim.L2.Hits
		simAgg.L2.Misses += r.Sim.L2.Misses
		simAgg.MC.MDCHits += r.Sim.MC.MDCHits
		simAgg.MC.MDCMisses += r.Sim.MC.MDCMisses
	}
	blocks := float64(comp.Blocks)
	rep.set("pipeline.blocks", blocks)
	rep.set("pipeline.sync_mb_s", ratio(blocks*compress.BlockSize/1e6, self["pipeline.sync"]))
	rep.set("pipeline.lossy_frac", ratio(float64(comp.LossyBlocks), blocks))
	rep.set("pipeline.uncompressed_frac", ratio(float64(comp.Uncompressed), blocks))
	for _, c := range codecNames {
		mb := float64(acc.syncBlocks[c]) * compress.BlockSize / 1e6
		rep.set("compress."+c+".sync_mb_s", ratio(mb, acc.syncSec[c]))
		if crs := effCR[c]; len(crs) > 0 {
			rep.set("compress."+c+".eff_cr", stats.Geomean(crs))
		}
	}
	rep.set("trace.accesses", float64(accesses))
	rep.set("sim.events", float64(acc.events))
	rep.set("sim.mevents_per_s", ratio(float64(acc.events)/1e6, self["sim.replay"]))
	rep.set("sim.sm_cycles", simAgg.SMCycles)
	rep.set("sim.dram_bursts", float64(simAgg.DramBursts))
	rep.set("sim.meta_bursts", float64(simAgg.DramMetaBursts))
	rep.set("sim.row_hit_rate", ratio(float64(simAgg.RowHits), float64(simAgg.RowHits+simAgg.RowMisses)))
	rep.set("sim.l2_hit_rate", ratio(float64(simAgg.L2.Hits), float64(simAgg.L2.Hits+simAgg.L2.Misses)))
	rep.set("sim.mdc_hit_rate", ratio(float64(simAgg.MC.MDCHits), float64(simAgg.MC.MDCHits+simAgg.MC.MDCMisses)))
	sp, errPct, cr := modelNumbers(results)
	rep.set("model.gm_speedup_opt", sp)
	rep.set("model.gm_error_pct_opt", errPct)
	rep.set("model.eff_cr_gm", cr)
}
