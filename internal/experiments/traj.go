package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/pipeline"
	"repro/internal/resultstore"
	"repro/internal/workloads"
)

// The bench trajectory is the machine-readable form of an evaluation: every
// executed cell with its full measurement, in cell order. `slcbench -json`
// emits it, CI records it as an artefact, and the golden regression test
// pins its byte encoding (testdata/bench_golden.json) so schema drift and
// nondeterminism are caught at test time rather than in downstream plots.

// CompressionResult is one compression-only cell of a trajectory.
type CompressionResult struct {
	Workload string
	Config   Config
	Comp     pipeline.Stats
}

// Trajectory is the `slcbench -json` schema. Store, present only when a
// result store is attached, carries the hit/miss counters that make "a warm
// run recomputed nothing" observable; it is deliberately separate from the
// result sections, which must be bitwise-identical between cold and warm
// runs (and across machines). The trajectory carries no wall-clock timings:
// host speed is measured by the bench/ module (bench/README.md).
type Trajectory struct {
	// Schema is the result-store schema version the trajectory was produced
	// under; downstream plots use it to detect encoding drift.
	Schema      int
	Target      string
	Results     []RunResult         `json:",omitempty"`
	Compression []CompressionResult `json:",omitempty"`
	Store       *resultstore.Stats  `json:",omitempty"`

	// runner is the runner the cells were collected from. The MDC-size
	// ablation re-times one cell on it with a modified simulator
	// (RerunTiming), the one measurement of the evaluation that is not a
	// cell.
	runner *Runner
}

// CollectTrajectory reads the given cells through the runner (memoised —
// warmed cells are not re-executed) and assembles the trajectory, including
// the runner's store counters when a store is attached.
func CollectTrajectory(r *Runner, target string, full, comp []Cell) (*Trajectory, error) {
	t := &Trajectory{Schema: resultstore.SchemaVersion, Target: target, runner: r}
	for _, c := range full {
		res, err := r.Run(c.Workload, c.Config)
		if err != nil {
			return nil, fmt.Errorf("trajectory %s: %w", target, err)
		}
		t.Results = append(t.Results, res)
	}
	for _, c := range comp {
		st, err := r.CompressionOnly(c.Workload, c.Config)
		if err != nil {
			return nil, fmt.Errorf("trajectory %s: %w", target, err)
		}
		t.Compression = append(t.Compression, CompressionResult{
			Workload: c.Workload.Info().Name,
			Config:   c.Config,
			Comp:     st,
		})
	}
	t.Store = r.StoreStats()
	return t, nil
}

// WriteJSON writes the trajectory in its canonical indented encoding.
func (t *Trajectory) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// cellReader looks a render's cells up in a trajectory by memo key (see
// Runner.Run and CompressionOnly). A missing cell reads as the zero result
// and records an error, so a render checks once, at its end, rather than
// after every lookup.
type cellReader struct {
	target string
	cells  map[string]RunResult
	err    error
}

func (t *Trajectory) reader() *cellReader {
	c := &cellReader{target: t.Target, cells: make(map[string]RunResult, len(t.Results)+len(t.Compression))}
	for _, res := range t.Results {
		c.cells[cellKey(res.Workload, res.Config)] = res
	}
	for _, res := range t.Compression {
		c.cells[cellKey(res.Workload, res.Config)+"|comp"] = RunResult{Comp: res.Comp}
	}
	return c
}

// run returns the timed cell of w under cfg.
func (c *cellReader) run(w workloads.Workload, cfg Config) RunResult {
	return c.get(cellKey(w.Info().Name, cfg))
}

// compression returns the compression-only cell of w under cfg.
func (c *cellReader) compression(w workloads.Workload, cfg Config) pipeline.Stats {
	return c.get(cellKey(w.Info().Name, cfg) + "|comp").Comp
}

func (c *cellReader) get(key string) RunResult {
	res, ok := c.cells[key]
	if !ok && c.err == nil {
		c.err = fmt.Errorf("experiments: trajectory %q has no cell %s", c.target, key)
	}
	return res
}
