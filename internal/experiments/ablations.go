package experiments

import (
	"fmt"
	"strings"

	"repro/internal/compress"
	"repro/internal/gpu/sim"
	"repro/internal/slc"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Ablations exercises the design choices DESIGN.md calls out, beyond the
// paper's own figures: the lossy threshold, the TSLC-OPT extra tree nodes,
// the prediction policy and the metadata cache size.
type Ablations struct {
	// Threshold sweep (GM over all benchmarks at MAG 32B).
	Thresholds  []int // bytes
	GMSpeedup   []float64
	GMErrorPct  []float64
	GMBandwidth []float64

	// Extra-node ablation on DCT (PRED tree vs OPT tree, same prediction).
	ExtraNodesErrPct  [2]float64 // [without, with]
	ExtraNodesSpeedup [2]float64
	PredictionErrPct  [2]float64 // [SIMP zeros, PRED value-similarity] on NN
	MDCSlowdownTiny   float64    // 16-line MDC vs default, NN
	MDCMissesTiny     int
	MDCMissesDefault  int
}

// ablationThresholds are the lossy thresholds of the sweep, in bytes.
var ablationThresholds = []int{4, 8, 16, 24, 32}

// AblationStudy reads the ablations from the collected cells. The MDC-size
// ablation is the one measurement that is not a cell: it re-times NN ×
// TSLC-OPT with a 16-line MDC on the trajectory's runner (RerunTiming) and
// compares it with the collected default cell.
func AblationStudy(t *Trajectory) (Ablations, error) {
	cells := t.reader()
	a := Ablations{Thresholds: ablationThresholds}
	for _, tb := range a.Thresholds {
		var sp, er, bw []float64
		for _, w := range workloads.Registry() {
			base := cells.run(w, E2MCConfig(compress.MAG32))
			res := cells.run(w, TSLCConfig(slc.OPT, compress.MAG32, tb*8))
			sp = append(sp, base.Sim.TimeNs/res.Sim.TimeNs)
			er = append(er, res.ErrorFrac*100)
			bw = append(bw, float64(res.Sim.DramBytes)/float64(base.Sim.DramBytes))
		}
		a.GMSpeedup = append(a.GMSpeedup, stats.Geomean(sp))
		a.GMErrorPct = append(a.GMErrorPct, stats.Geomean(er))
		a.GMBandwidth = append(a.GMBandwidth, stats.Geomean(bw))
	}

	dct, err := workloads.ByName("DCT")
	if err != nil {
		return Ablations{}, err
	}
	base := cells.run(dct, E2MCConfig(compress.MAG32))
	pred := cells.run(dct, TSLCConfig(slc.PRED, compress.MAG32, DefaultThresholdBits))
	opt := cells.run(dct, TSLCConfig(slc.OPT, compress.MAG32, DefaultThresholdBits))
	a.ExtraNodesErrPct = [2]float64{pred.ErrorFrac * 100, opt.ErrorFrac * 100}
	a.ExtraNodesSpeedup = [2]float64{
		base.Sim.TimeNs / pred.Sim.TimeNs,
		base.Sim.TimeNs / opt.Sim.TimeNs,
	}

	nn, err := workloads.ByName("NN")
	if err != nil {
		return Ablations{}, err
	}
	simp := cells.run(nn, TSLCConfig(slc.SIMP, compress.MAG32, DefaultThresholdBits))
	predNN := cells.run(nn, TSLCConfig(slc.PRED, compress.MAG32, DefaultThresholdBits))
	a.PredictionErrPct = [2]float64{simp.ErrorFrac * 100, predNN.ErrorFrac * 100}

	cfg := TSLCConfig(slc.OPT, compress.MAG32, DefaultThresholdBits)
	full := cells.run(nn, cfg).Sim
	if cells.err != nil {
		return Ablations{}, cells.err
	}
	if t.runner == nil {
		return Ablations{}, fmt.Errorf("experiments: the MDC ablation needs the runner that collected trajectory %q", t.Target)
	}
	tiny, err := RerunTiming(t.runner, nn, cfg, func(c *sim.Config) { c.MC.MDCLines = 16 })
	if err != nil {
		return Ablations{}, err
	}
	a.MDCSlowdownTiny = tiny.TimeNs / full.TimeNs
	a.MDCMissesTiny = tiny.MC.MDCMisses
	a.MDCMissesDefault = full.MC.MDCMisses
	return a, nil
}

// String renders the ablation study.
func (a Ablations) String() string {
	var b strings.Builder
	b.WriteString("Ablations\n")
	b.WriteString("---------\n")
	b.WriteString("Lossy threshold sweep (TSLC-OPT, MAG 32B, GM over 9 benchmarks):\n")
	fmt.Fprintf(&b, "  %-10s %10s %10s %12s\n", "threshold", "speedup", "error[%]", "bandwidth")
	for i, tb := range a.Thresholds {
		fmt.Fprintf(&b, "  %8dB %10.3f %10.3f %12.3f\n",
			tb, a.GMSpeedup[i], a.GMErrorPct[i], a.GMBandwidth[i])
	}
	fmt.Fprintf(&b, "\nTSLC-OPT extra tree nodes (DCT): error %.3f%% → %.3f%%, speedup %.3f → %.3f\n",
		a.ExtraNodesErrPct[0], a.ExtraNodesErrPct[1],
		a.ExtraNodesSpeedup[0], a.ExtraNodesSpeedup[1])
	fmt.Fprintf(&b, "Prediction policy (NN): zeros %.2f%% error → value-similarity %.2f%%\n",
		a.PredictionErrPct[0], a.PredictionErrPct[1])
	fmt.Fprintf(&b, "MDC sized 16 lines (NN): %.3f× slowdown, %d misses (default: %d)\n",
		a.MDCSlowdownTiny, a.MDCMissesTiny, a.MDCMissesDefault)
	return b.String()
}
