package experiments

import (
	"fmt"
	"strings"

	"repro/internal/compress"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Fig1Codecs are the four lossless techniques of Figure 1, in plot order,
// plus BPC and HyComp — the §II-A techniques the paper argues
// (qualitatively) suffer from MAG as well; this reproduction measures them.
// (SC² is Huffman-based like E2MC, so the E2MC column stands in for it.)
var Fig1Codecs = []struct {
	Label string
	Codec string // registry name
}{
	{"BDI", "bdi"},
	{"FPC", "fpc"},
	{"CPACK", "cpack"},
	{"E2MC", "e2mc"},
	{"BPC", "bpc"},
	{"HYCOMP", "hycomp"},
}

// Fig1Row holds one benchmark's raw and effective compression ratios per
// codec.
type Fig1Row struct {
	Benchmark string
	Raw       map[string]float64
	Eff       map[string]float64
}

// Fig1 reproduces Figure 1: raw vs effective compression ratio of BDI, FPC,
// C-PACK and E2MC at 32 B MAG, with the geometric-mean column.
type Fig1 struct {
	MAG  compress.MAG
	Rows []Fig1Row
	GM   Fig1Row
}

// Figure1 reads the compression-only sweep.
func Figure1(t *Trajectory) (Fig1, error) {
	cells := t.reader()
	f := Fig1{MAG: compress.MAG32, GM: Fig1Row{Benchmark: "GM", Raw: map[string]float64{}, Eff: map[string]float64{}}}
	rawCols := map[string][]float64{}
	effCols := map[string][]float64{}
	for _, w := range workloads.Registry() {
		row := Fig1Row{Benchmark: w.Info().Name, Raw: map[string]float64{}, Eff: map[string]float64{}}
		for _, c := range Fig1Codecs {
			st := cells.compression(w, BaselineConfig(c.Codec, f.MAG))
			row.Raw[c.Label] = st.RawRatio()
			row.Eff[c.Label] = st.EffectiveRatio()
			rawCols[c.Label] = append(rawCols[c.Label], st.RawRatio())
			effCols[c.Label] = append(effCols[c.Label], st.EffectiveRatio())
		}
		f.Rows = append(f.Rows, row)
	}
	for _, c := range Fig1Codecs {
		f.GM.Raw[c.Label] = stats.Geomean(rawCols[c.Label])
		f.GM.Eff[c.Label] = stats.Geomean(effCols[c.Label])
	}
	return f, cells.err
}

// GapPct returns how far the effective GM sits below the raw GM for a codec,
// in percent (the paper reports 22/19/18/23% for BDI/FPC/C-PACK/E2MC).
func (f Fig1) GapPct(codec string) float64 {
	raw := f.GM.Raw[codec]
	if raw == 0 {
		return 0
	}
	return (1 - f.GM.Eff[codec]/raw) * 100
}

// String renders the figure as a table.
func (f Fig1) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: raw and effective compression ratio (MAG %s)\n", f.MAG)
	fmt.Fprintf(&b, "%-6s", "")
	for _, c := range Fig1Codecs {
		fmt.Fprintf(&b, " %7s-Raw %7s-Eff", c.Label, c.Label)
	}
	b.WriteByte('\n')
	all := append(append([]Fig1Row{}, f.Rows...), f.GM)
	for _, row := range all {
		fmt.Fprintf(&b, "%-6s", row.Benchmark)
		for _, c := range Fig1Codecs {
			fmt.Fprintf(&b, " %11.2f %11.2f", row.Raw[c.Label], row.Eff[c.Label])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "effective below raw (GM):")
	for _, c := range Fig1Codecs {
		fmt.Fprintf(&b, "  %s %.0f%%", c.Label, f.GapPct(c.Label))
	}
	fmt.Fprintf(&b, "\n(paper: BDI 22%%, FPC 19%%, C-PACK 18%%, E2MC 23%%)\n")
	return b.String()
}
