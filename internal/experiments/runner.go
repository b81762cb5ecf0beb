// Package experiments reproduces every table and figure of the paper's
// evaluation. The Runner executes one (workload × configuration) cell of the
// evaluation matrix — golden run, online-sampling table training, compressed
// run with error measurement, timing simulation and energy accounting — and
// memoises results so figures sharing runs (7, 8) do not recompute them.
//
// One function, pass, assembles every cell the module runs: a timed cell
// (Run), a compression-only cell (CompressionOnly) and the MDC ablation's
// re-simulation (RerunTiming). Golden outputs and both kinds of cell resolve
// memory hit → store hit → compute through one helper, memo (store.go). The
// cmd binaries print what the Runner returns and build no pipeline of their
// own; slcsim's trace summary and block distribution are the RunResult's.
//
// The Runner is safe for concurrent use: memoisation is singleflight-style
// (concurrent requests for the same golden run, entropy table or result
// compute once while the rest wait), and RunAll fans an evaluation matrix
// across a worker pool with results identical to serial execution.
//
// Every figure, table and named subset of the evaluation matrix is one
// entry of the evaluation table (matrix.go): a cell list and, for the
// paper's artefacts, a pure render of the collected cells. The Trajectory
// type holds collected cells; it is the `slcbench -json` schema CI records
// on every push, pinned by the golden fixtures under testdata/.
package experiments

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"

	"repro/internal/compress"
	_ "repro/internal/compress/all" // register every codec
	"repro/internal/compress/e2mc"
	"repro/internal/compress/sz"
	"repro/internal/flight"
	"repro/internal/gpu/device"
	"repro/internal/gpu/sim"
	"repro/internal/gpu/trace"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/resultstore"
	"repro/internal/serving"
	"repro/internal/slc"
	"repro/internal/workloads"
)

// Config is one compression configuration, identified by the codec's
// registry name (see compress.Names for the available set).
type Config struct {
	// Name is the display name used in figures and memoisation keys, e.g.
	// "E2MC@32B" or "TSLC-OPT@32B/t16B".
	Name string
	// Codec is the registry name of the technique, e.g. "e2mc", "bdi",
	// "tslc-opt". "raw" selects the uncompressed baseline.
	Codec string
	// MAG is the memory access granularity of the cell.
	MAG compress.MAG
	// ThresholdBits is the lossy threshold (lossy codecs only).
	ThresholdBits int
	// ErrorBound is the absolute error bound (error-bounded codecs only).
	ErrorBound float64
}

// NamedConfig builds a configuration from a codec registry name, validating
// the name against the registered set. thresholdBits applies to lossy
// codecs only and errorBound to error-bounded codecs only; a non-positive
// threshold selects the paper's default and a zero bound the codec's
// default, so the display name always matches the parameters the codec
// actually runs at.
func NamedConfig(codec string, mag compress.MAG, thresholdBits int, errorBound float64) (Config, error) {
	codec = strings.ToLower(codec)
	info, ok := compress.Lookup(codec)
	if !ok {
		return Config{}, compress.UnknownCodecError(codec)
	}
	if !mag.Valid() {
		// Validate here, not deep inside pipeline construction: by then a
		// tool may already have trained an entropy table for nothing.
		return Config{}, fmt.Errorf("experiments: invalid MAG %d (want a power of two dividing %d)", mag, compress.BlockSize)
	}
	cfg := Config{Codec: codec, MAG: mag}
	switch {
	case info.LossyBounded:
		if errorBound == 0 {
			errorBound = DefaultErrorBound
		}
		if math.IsNaN(errorBound) || math.IsInf(errorBound, 0) || errorBound < 0 {
			return Config{}, fmt.Errorf("experiments: error bound must be positive and finite, got %v", errorBound)
		}
		cfg.ErrorBound = errorBound
	case info.Lossy:
		if thresholdBits <= 0 {
			thresholdBits = DefaultThresholdBits
		}
		cfg.ThresholdBits = thresholdBits
	}
	return named(cfg), nil
}

// named sets cfg.Name from the codec and the parameters cfg carries:
// "CODEC@MAG", plus "/ebX" for an error bound or "/tNB" for a lossy
// threshold. Cell names are result-store key material, so every Config
// constructor goes through here and the format exists once.
func named(cfg Config) Config {
	cfg.Name = fmt.Sprintf("%s@%s", strings.ToUpper(cfg.Codec), cfg.MAG)
	switch {
	case cfg.ErrorBound != 0:
		cfg.Name += fmt.Sprintf("/eb%.0e", cfg.ErrorBound)
	case cfg.ThresholdBits != 0:
		cfg.Name += fmt.Sprintf("/t%dB", cfg.ThresholdBits/8)
	}
	return cfg
}

// E2MCConfig returns the lossless baseline at the given MAG.
func E2MCConfig(mag compress.MAG) Config {
	return named(Config{Codec: "e2mc", MAG: mag})
}

// TSLCConfig returns an SLC configuration.
func TSLCConfig(v slc.Variant, mag compress.MAG, thresholdBits int) Config {
	return named(Config{Codec: slc.RegistryName(v), MAG: mag, ThresholdBits: thresholdBits})
}

// BaselineConfig returns one of the Figure 1 lossless codecs (or the raw
// baseline) by registry name.
func BaselineConfig(codec string, mag compress.MAG) Config {
	return named(Config{Codec: codec, MAG: mag})
}

// DefaultErrorBound is the absolute error bound error-bounded cells run at
// when none is given — the sz family's own default.
const DefaultErrorBound = sz.DefaultBound

// BoundedConfig returns an error-bounded codec configuration. A zero bound
// selects DefaultErrorBound.
func BoundedConfig(codec string, mag compress.MAG, errorBound float64) Config {
	if errorBound == 0 {
		errorBound = DefaultErrorBound
	}
	return named(Config{Codec: codec, MAG: mag, ErrorBound: errorBound})
}

// RunResult is everything measured for one workload × configuration.
type RunResult struct {
	Workload  string
	Config    Config
	ErrorFrac float64 // application error (fraction, not %)
	Sim       sim.Result
	Energy    power.Breakdown
	Comp      pipeline.Stats
	Trace     trace.Stats
}

// cellKey is the memoisation key of one evaluation cell; Run,
// CompressionOnly (with a "|comp" suffix), the `all` entry's dedup and the
// renders' trajectory lookups all derive from it.
func cellKey(workload string, cfg Config) string { return workload + "|" + cfg.Name }

// Runner executes and memoises evaluation cells. The zero value is not
// usable; call NewRunner.
type Runner struct {
	golden  flight.Group[[]float64]
	tables  serving.TableCache
	results flight.Group[RunResult]

	// Store, when non-nil, persists memoised computations to disk,
	// content-addressed by workload, configuration and code fingerprint
	// (see store.go). Each singleflight slot then resolves memory hit →
	// disk hit → compute; a populated store makes a repeated invocation
	// recompute nothing and return bitwise-identical results.
	Store *resultstore.Store

	// SyncWorkers, when > 1, parallelises block compression inside each
	// run's pipeline (see pipeline.SetWorkers). Results are identical to
	// serial execution.
	SyncWorkers int

	// SimWorkers, when > 1, shards each timing simulation across that many
	// goroutines (one event lane per DRAM channel plus the SM/L2
	// coordinator; see sim.Config.Workers) and also overlaps the replay
	// with the workload: each kernel is replayed on its own goroutine while
	// the workload computes the next. Results are bitwise-identical at
	// every worker count, so memoised cells are unaffected.
	SimWorkers int

	progressMu sync.Mutex
	// Progress, when set, receives one line per executed (non-memoised)
	// run. It may be called from multiple goroutines; calls are serialised.
	Progress func(string)
}

// NewRunner returns an empty runner.
func NewRunner() *Runner {
	r := &Runner{}
	// The runner is a thin client of the serving tier's builder cache: table
	// training and codec construction live in internal/serving, shared with
	// the slcd daemon. Store is read through a closure so assigning
	// Runner.Store after construction (the storeflag pattern) is seen.
	r.tables.Store = func() *resultstore.Store { return r.Store }
	r.tables.Progress = r.progress
	return r
}

func (r *Runner) progress(format string, args ...interface{}) {
	r.progressMu.Lock()
	defer r.progressMu.Unlock()
	if r.Progress != nil {
		r.Progress(fmt.Sprintf(format, args...))
	}
}

// Golden returns the exact (uncompressed) outputs of a workload.
func (r *Runner) Golden(w workloads.Workload) ([]float64, error) {
	name := w.Info().Name
	return r.golden.Do(name, func() ([]float64, error) {
		return memo(r, kindGolden, goldenMaterial(w), gobRecords, "golden "+name, func() ([]float64, error) {
			r.progress("golden run: %s", name)
			out, err := w.Run(workloads.NewCtx(device.New(), nil, nil))
			if err != nil {
				return nil, fmt.Errorf("golden %s: %w", name, err)
			}
			return out, nil
		})
	})
}

// Table returns the workload's E2MC table, trained by sampling the device
// image at every region synchronisation — the online-sampling substitute.
// The work happens in the shared serving.TableCache: memory hit → store hit
// → train, in a singleflight slot per workload.
func (r *Runner) Table(w workloads.Workload) (*e2mc.Table, error) {
	return r.tables.Table(w)
}

// codecs builds the lossless and lossy codecs of a configuration from the
// registry. Identity codecs (the raw baseline) yield a nil pair; lossy
// codecs additionally build their lossless base for exact regions.
func (r *Runner) codecs(w workloads.Workload, cfg Config) (lossless, lossy compress.Codec, err error) {
	return r.tables.Codecs(w, cfg.Codec, cfg.MAG, cfg.ThresholdBits, cfg.ErrorBound)
}

// SimConfig derives the simulator configuration for a compression
// configuration: the MAG sets the per-burst bytes (bus occupancy scales so
// aggregate peak bandwidth stays at Table II's 192.4 GB/s), and the codec's
// registration sets the (de)compression latencies.
func SimConfig(cfg Config) sim.Config {
	sc := sim.DefaultConfig()
	sc.MAG = cfg.MAG
	sc.MC.Dram.BurstCycles = int(cfg.MAG) / 16
	if info, ok := compress.Lookup(cfg.Codec); ok {
		sc.MC.CompressCycles = info.CompressCycles
		sc.MC.DecompressCycles = info.DecompressCycles
	}
	return sc
}

// simConfig is the simulator configuration a cell of this runner runs
// under: SimConfig(cfg) with the runner's SimWorkers. It is also part of
// the cell's store key material.
func (r *Runner) simConfig(cfg Config) sim.Config {
	sc := SimConfig(cfg)
	sc.Workers = r.SimWorkers
	return sc
}

// Run executes one evaluation cell (memoised; concurrent calls for the same
// cell compute once).
func (r *Runner) Run(w workloads.Workload, cfg Config) (RunResult, error) {
	info := w.Info()
	return r.results.Do(cellKey(info.Name, cfg), func() (RunResult, error) {
		sc := r.simConfig(cfg)
		// A store hit short-circuits everything, including the golden run
		// and table training the cell would otherwise request.
		return memo(r, kindCell, cellMaterial(w, cfg, sc), jsonRecords, info.Name+" × "+cfg.Name, func() (RunResult, error) {
			golden, err := r.Golden(w)
			if err != nil {
				return RunResult{}, err
			}
			p, err := r.pass(w, cfg, &sc)
			if err != nil {
				return RunResult{}, err
			}
			errFrac, err := metrics.Eval(info.Metric, golden, p.out)
			if err != nil {
				return RunResult{}, err
			}
			energy, err := power.Compute(p.sim, power.Default())
			if err != nil {
				return RunResult{}, err
			}
			return RunResult{
				Workload:  info.Name,
				Config:    cfg,
				ErrorFrac: errFrac,
				Sim:       p.sim,
				Energy:    energy,
				Comp:      p.comp,
				Trace:     p.trace,
			}, nil
		})
	})
}

// CompressionOnly runs the workload under a configuration without the timing
// simulation — enough for Figures 1 and 2.
func (r *Runner) CompressionOnly(w workloads.Workload, cfg Config) (pipeline.Stats, error) {
	info := w.Info()
	res, err := r.results.Do(cellKey(info.Name, cfg)+"|comp", func() (RunResult, error) {
		return memo(r, kindComp, compMaterial(w, cfg), jsonRecords, info.Name+" × "+cfg.Name, func() (RunResult, error) {
			p, err := r.pass(w, cfg, nil)
			if err != nil {
				return RunResult{}, err
			}
			return RunResult{Workload: info.Name, Config: cfg, Comp: p.comp}, nil
		})
	})
	return res.Comp, err
}

// Cell is one entry of an evaluation matrix: a workload under a
// configuration.
type Cell struct {
	Workload workloads.Workload
	Config   Config
}

// Workers resolves a worker-count knob: non-positive values (the cmd
// binaries' "-parallel 0") select one worker per core. RunAll, Runner
// SyncWorkers consumers and the cmd/ flags all share this policy.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// RunAll executes the cells across a worker pool and returns their results
// in input order. workers ≤ 0 selects GOMAXPROCS. Memoisation makes every
// result identical to what serial Run calls would produce; cells sharing a
// golden run or entropy table compute it once. All failing cells contribute
// to the joined error; successful cells still return results.
func (r *Runner) RunAll(cells []Cell, workers int) ([]RunResult, error) {
	results := make([]RunResult, len(cells))
	errs := make([]error, len(cells))
	r.forEachCell(workers, func(i int) error {
		res, err := r.Run(cells[i].Workload, cells[i].Config)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	}, cells, errs)
	return results, errors.Join(errs...)
}

// CompressAll executes compression-only cells (the Figure 1/2 sweep) across
// a worker pool, warming the CompressionOnly memo. workers ≤ 0 selects
// GOMAXPROCS.
func (r *Runner) CompressAll(cells []Cell, workers int) error {
	errs := make([]error, len(cells))
	r.forEachCell(workers, func(i int) error {
		_, err := r.CompressionOnly(cells[i].Workload, cells[i].Config)
		return err
	}, cells, errs)
	return errors.Join(errs...)
}

// forEachCell fans cell indices across a worker pool. A cell that fails —
// or panics, e.g. a codec bug tripping the pipeline's round-trip invariant —
// records into errs[i] rather than killing the process, so the other cells'
// results survive; serial callers of Run still see panics directly.
func (r *Runner) forEachCell(workers int, fn func(int) error, cells []Cell, errs []error) {
	workers = Workers(workers)
	if workers > len(cells) {
		workers = len(cells)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				func() {
					defer func() {
						if v := recover(); v != nil {
							errs[i] = fmt.Errorf("cell %d (%s × %s): panic: %v",
								i, cells[i].Workload.Info().Name, cells[i].Config.Name, v)
						}
					}()
					if err := fn(i); err != nil {
						errs[i] = fmt.Errorf("cell %d (%s × %s): %w",
							i, cells[i].Workload.Info().Name, cells[i].Config.Name, err)
					}
				}()
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
}

// RunnerCodecs exposes the runner's codec construction (including table
// training). It exists only for the bench module's traced cell copy
// (compose); the benchmark change that times Runner.Run's own stages deletes
// both.
func RunnerCodecs(r *Runner, w workloads.Workload, cfg Config) (lossless, lossy compress.Codec, err error) {
	return r.codecs(w, cfg)
}

// RerunTiming re-simulates a configuration with a modified simulator
// configuration: the MDC-size ablation, the one measurement of the
// evaluation that is not a cell.
func RerunTiming(r *Runner, w workloads.Workload, cfg Config, mod func(*sim.Config)) (sim.Result, error) {
	sc := r.simConfig(cfg)
	mod(&sc)
	p, err := r.pass(w, cfg, &sc)
	return p.sim, err
}

// cellPass is what one pass of a cell's workload produces.
type cellPass struct {
	out   []float64 // the workload's outputs, for error evaluation
	comp  pipeline.Stats
	trace trace.Stats
	sim   sim.Result
}

// pass is the one place a cell is assembled: it builds the cell's codecs,
// device and pipeline (with the runner's SyncWorkers) and runs w under it.
// With sc nil that is all: no trace recorder, no simulator. With sc the
// run is recorded and replayed on the timing simulator (sim.RunRecording):
// with sc.Workers > 1 the replay overlaps the workload kernel by kernel,
// and the Result is bitwise-identical either way.
func (r *Runner) pass(w workloads.Workload, cfg Config, sc *sim.Config) (cellPass, error) {
	lossless, lossy, err := r.codecs(w, cfg)
	if err != nil {
		return cellPass{}, err
	}
	info := w.Info()
	if sc == nil {
		r.progress("compress: %s × %s", info.Name, cfg.Name)
	} else {
		r.progress("run: %s × %s", info.Name, cfg.Name)
	}
	dev := device.New()
	pl, err := pipeline.New(dev, cfg.MAG, lossless, lossy)
	if err != nil {
		return cellPass{}, err
	}
	pl.SetWorkers(r.SyncWorkers)
	var p cellPass
	run := func(rec *trace.Recorder) error {
		out, err := w.Run(workloads.NewCtx(dev, rec, pl.Sync))
		if err != nil {
			return fmt.Errorf("%s × %s: %w", info.Name, cfg.Name, err)
		}
		p.out = out
		return nil
	}
	if sc == nil {
		err = run(nil)
	} else {
		rec := trace.NewRecorder(pl.BurstsFor)
		if p.sim, err = sim.RunRecording(rec, *sc, func() error { return run(rec) }); err == nil {
			p.trace = rec.Trace().Stats(cfg.MAG)
		}
	}
	if err != nil {
		return cellPass{}, err
	}
	p.comp = pl.Stats()
	return p, nil
}
