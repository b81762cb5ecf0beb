package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/pipeline"
	"repro/internal/resultstore"
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
}

// CollectTrajectory reads the given cells through the runner (memoised —
// warmed cells are not re-executed) and assembles the trajectory, including
// the runner's store counters when a store is attached.
func CollectTrajectory(r *Runner, target string, full, comp []Cell) (*Trajectory, error) {
	t := &Trajectory{Schema: resultstore.SchemaVersion, Target: target}
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
