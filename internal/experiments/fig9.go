package experiments

import (
	"fmt"
	"strings"

	"repro/internal/compress"
	"repro/internal/slc"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Fig9MAGs are the granularities of the sensitivity study.
var Fig9MAGs = []compress.MAG{compress.MAG16, compress.MAG32, compress.MAG64}

// Fig9 reproduces Figure 9 and the §V-C compression-ratio numbers: TSLC-OPT
// speedup and error at 16/32/64 B MAG (lossy threshold = MAG/2), plus
// E2MC's raw and effective compression ratios per MAG.
type Fig9 struct {
	Benchmarks []string
	Speedup    map[compress.MAG][]float64
	ErrorPct   map[compress.MAG][]float64
	GMSpeedup  map[compress.MAG]float64
	// EffCRGM is E2MC's effective compression ratio GM per MAG (paper:
	// 1.41 / 1.31 / 1.16); RawCRGM is MAG-independent (paper: 1.54).
	EffCRGM map[compress.MAG]float64
	RawCRGM float64
}

// Figure9 reads TSLC-OPT against E2MC at each granularity.
func Figure9(t *Trajectory) (Fig9, error) {
	cells := t.reader()
	f := Fig9{
		Speedup:   map[compress.MAG][]float64{},
		ErrorPct:  map[compress.MAG][]float64{},
		GMSpeedup: map[compress.MAG]float64{},
		EffCRGM:   map[compress.MAG]float64{},
	}
	var rawCRs []float64
	for _, mag := range Fig9MAGs {
		var effCRs []float64
		for _, w := range workloads.Registry() {
			base := cells.run(w, E2MCConfig(mag))
			res := cells.run(w, TSLCConfig(slc.OPT, mag, mag.Bits()/2))
			f.Speedup[mag] = append(f.Speedup[mag], base.Sim.TimeNs/res.Sim.TimeNs)
			f.ErrorPct[mag] = append(f.ErrorPct[mag], res.ErrorFrac*100)
			effCRs = append(effCRs, base.Comp.EffectiveRatio())
			if mag == compress.MAG32 {
				rawCRs = append(rawCRs, base.Comp.RawRatio())
			}
		}
		f.EffCRGM[mag] = stats.Geomean(effCRs)
		f.GMSpeedup[mag] = stats.Geomean(f.Speedup[mag])
	}
	for _, w := range workloads.Registry() {
		f.Benchmarks = append(f.Benchmarks, w.Info().Name)
	}
	f.RawCRGM = stats.Geomean(rawCRs)
	return f, cells.err
}

// String renders both panels and the §V-C ratios.
func (f Fig9) String() string {
	var b strings.Builder
	b.WriteString("Figure 9a: TSLC-OPT speedup vs E2MC at MAG 16/32/64B (threshold = MAG/2)\n")
	fmt.Fprintf(&b, "%-7s %10s %10s %10s\n", "", "MAG16B", "MAG32B", "MAG64B")
	for i, name := range f.Benchmarks {
		fmt.Fprintf(&b, "%-7s", name)
		for _, mag := range Fig9MAGs {
			fmt.Fprintf(&b, " %10.3f", f.Speedup[mag][i])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-7s", "GM")
	for _, mag := range Fig9MAGs {
		fmt.Fprintf(&b, " %10.3f", f.GMSpeedup[mag])
	}
	b.WriteString("\n(paper GM: 1.05 / 1.097 / 1.09; NN +35%, SRAD1 +27%, TP +21% at 64B)\n")

	b.WriteString("\nFigure 9b: application error [%]\n")
	fmt.Fprintf(&b, "%-7s %10s %10s %10s\n", "", "MAG16B", "MAG32B", "MAG64B")
	for i, name := range f.Benchmarks {
		fmt.Fprintf(&b, "%-7s", name)
		for _, mag := range Fig9MAGs {
			fmt.Fprintf(&b, " %10.4f", f.ErrorPct[mag][i])
		}
		b.WriteByte('\n')
	}
	b.WriteString("(paper: higher variation at 64B, e.g. NN 5.2%)\n")

	b.WriteString("\n§V-C: E2MC compression ratios across MAGs\n")
	fmt.Fprintf(&b, "  raw CR GM: %.2f (paper 1.54, MAG-independent)\n", f.RawCRGM)
	for _, mag := range Fig9MAGs {
		fmt.Fprintf(&b, "  effective CR GM at %s: %.2f\n", mag, f.EffCRGM[mag])
	}
	b.WriteString("  (paper: 1.41 / 1.31 / 1.16 at 16/32/64B)\n")
	return b.String()
}
