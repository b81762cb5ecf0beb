package experiments

import (
	"fmt"
	"strings"

	"repro/internal/compress"
	"repro/internal/slc"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Fig8 reproduces Figure 8: off-chip bandwidth, energy and energy-delay
// product of the TSLC variants normalised to E2MC, over the Figure 7 cells.
type Fig8 struct {
	Benchmarks []string
	Bandwidth  map[slc.Variant][]float64
	Energy     map[slc.Variant][]float64
	EDP        map[slc.Variant][]float64
	GMBw       map[slc.Variant]float64
	GMEnergy   map[slc.Variant]float64
	GMEDP      map[slc.Variant]float64
}

// Figure8 computes the normalised metrics.
func Figure8(t *Trajectory) (Fig8, error) {
	cells := t.reader()
	f := Fig8{
		Bandwidth: map[slc.Variant][]float64{},
		Energy:    map[slc.Variant][]float64{},
		EDP:       map[slc.Variant][]float64{},
		GMBw:      map[slc.Variant]float64{},
		GMEnergy:  map[slc.Variant]float64{},
		GMEDP:     map[slc.Variant]float64{},
	}
	for _, w := range workloads.Registry() {
		base := cells.run(w, E2MCConfig(compress.MAG32))
		f.Benchmarks = append(f.Benchmarks, w.Info().Name)
		for _, v := range Fig7Variants {
			res := cells.run(w, TSLCConfig(v, compress.MAG32, DefaultThresholdBits))
			// DramBytes is data traffic only (metadata bursts are split
			// into DramMetaBursts), so this ratio is the saved payload
			// bandwidth; MDC metadata overhead shows up in time and energy.
			f.Bandwidth[v] = append(f.Bandwidth[v],
				float64(res.Sim.DramBytes)/float64(base.Sim.DramBytes))
			f.Energy[v] = append(f.Energy[v],
				res.Energy.TotalMJ()/base.Energy.TotalMJ())
			f.EDP[v] = append(f.EDP[v],
				res.Energy.EDP(res.Sim.TimeNs)/base.Energy.EDP(base.Sim.TimeNs))
		}
	}
	for _, v := range Fig7Variants {
		f.GMBw[v] = stats.Geomean(f.Bandwidth[v])
		f.GMEnergy[v] = stats.Geomean(f.Energy[v])
		f.GMEDP[v] = stats.Geomean(f.EDP[v])
	}
	return f, cells.err
}

// String renders both panels.
func (f Fig8) String() string {
	var b strings.Builder
	b.WriteString("Figure 8a: normalised off-chip bandwidth (vs E2MC)\n")
	fmt.Fprintf(&b, "%-7s", "")
	for _, v := range Fig7Variants {
		fmt.Fprintf(&b, " %10s", v)
	}
	b.WriteByte('\n')
	for i, name := range f.Benchmarks {
		fmt.Fprintf(&b, "%-7s", name)
		for _, v := range Fig7Variants {
			fmt.Fprintf(&b, " %10.3f", f.Bandwidth[v][i])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-7s", "GM")
	for _, v := range Fig7Variants {
		fmt.Fprintf(&b, " %10.3f", f.GMBw[v])
	}
	b.WriteString("\n(paper: ≈0.86 for all three variants)\n")

	b.WriteString("\nFigure 8b: normalised energy and EDP (vs E2MC)\n")
	fmt.Fprintf(&b, "%-7s", "")
	for _, v := range Fig7Variants {
		fmt.Fprintf(&b, " %8s-E %8s-EDP", shortVariant(v), shortVariant(v))
	}
	b.WriteByte('\n')
	for i, name := range f.Benchmarks {
		fmt.Fprintf(&b, "%-7s", name)
		for _, v := range Fig7Variants {
			fmt.Fprintf(&b, " %10.3f %12.3f", f.Energy[v][i], f.EDP[v][i])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-7s", "GM")
	for _, v := range Fig7Variants {
		fmt.Fprintf(&b, " %10.3f %12.3f", f.GMEnergy[v], f.GMEDP[v])
	}
	b.WriteString("\n(paper GM: energy ≈0.917, EDP ≈0.825)\n")
	return b.String()
}

func shortVariant(v slc.Variant) string {
	switch v {
	case slc.SIMP:
		return "SIMP"
	case slc.PRED:
		return "PRED"
	case slc.OPT:
		return "OPT"
	}
	return v.String()
}
