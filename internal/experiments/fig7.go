package experiments

import (
	"fmt"
	"strings"

	"repro/internal/compress"
	"repro/internal/slc"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Fig7Variants are the three TSLC schemes of the main evaluation.
var Fig7Variants = []slc.Variant{slc.SIMP, slc.PRED, slc.OPT}

// DefaultThresholdBits is the paper's main lossy threshold (16 B).
const DefaultThresholdBits = 16 * 8

// Fig7 reproduces Figure 7: speedup and application error of TSLC-SIMP,
// TSLC-PRED and TSLC-OPT normalised to E2MC, at 32 B MAG with a 16 B lossy
// threshold.
type Fig7 struct {
	Benchmarks []string
	Speedup    map[slc.Variant][]float64
	ErrorPct   map[slc.Variant][]float64
	GMSpeedup  map[slc.Variant]float64
	// GMErrorPctOPT is the geometric mean of the per-benchmark errors for
	// TSLC-OPT (the paper reports 0.99% as the GM of per-benchmark MRE).
	GMErrorPctOPT float64
}

// Figure7 reads the baseline and the three variants.
func Figure7(t *Trajectory) (Fig7, error) {
	cells := t.reader()
	f := Fig7{
		Speedup:   map[slc.Variant][]float64{},
		ErrorPct:  map[slc.Variant][]float64{},
		GMSpeedup: map[slc.Variant]float64{},
	}
	for _, w := range workloads.Registry() {
		base := cells.run(w, E2MCConfig(compress.MAG32))
		f.Benchmarks = append(f.Benchmarks, w.Info().Name)
		for _, v := range Fig7Variants {
			res := cells.run(w, TSLCConfig(v, compress.MAG32, DefaultThresholdBits))
			f.Speedup[v] = append(f.Speedup[v], base.Sim.TimeNs/res.Sim.TimeNs)
			f.ErrorPct[v] = append(f.ErrorPct[v], res.ErrorFrac*100)
		}
	}
	for _, v := range Fig7Variants {
		f.GMSpeedup[v] = stats.Geomean(f.Speedup[v])
	}
	f.GMErrorPctOPT = stats.Geomean(f.ErrorPct[slc.OPT])
	return f, cells.err
}

// String renders both panels of the figure.
func (f Fig7) String() string {
	var b strings.Builder
	b.WriteString("Figure 7a: speedup normalised to E2MC (MAG 32B, threshold 16B)\n")
	fmt.Fprintf(&b, "%-7s", "")
	for _, v := range Fig7Variants {
		fmt.Fprintf(&b, " %10s", v)
	}
	b.WriteByte('\n')
	for i, name := range f.Benchmarks {
		fmt.Fprintf(&b, "%-7s", name)
		for _, v := range Fig7Variants {
			fmt.Fprintf(&b, " %10.3f", f.Speedup[v][i])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-7s", "GM")
	for _, v := range Fig7Variants {
		fmt.Fprintf(&b, " %10.3f", f.GMSpeedup[v])
	}
	b.WriteString("\n(paper GM: 1.090 / 1.098 / 1.097; max ≈1.17 DCT, min ≈1.05 FWT, BP)\n")

	b.WriteString("\nFigure 7b: application error [%]\n")
	fmt.Fprintf(&b, "%-7s", "")
	for _, v := range Fig7Variants {
		fmt.Fprintf(&b, " %10s", v)
	}
	b.WriteByte('\n')
	for i, name := range f.Benchmarks {
		fmt.Fprintf(&b, "%-7s", name)
		for _, v := range Fig7Variants {
			fmt.Fprintf(&b, " %10.4f", f.ErrorPct[v][i])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "GM error (TSLC-OPT): %.2f%%  (paper: 0.99%%; <3%% except JM 7.3%%, BS 4.4%%)\n",
		f.GMErrorPctOPT)
	return b.String()
}
