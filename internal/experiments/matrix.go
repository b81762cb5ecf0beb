package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/compress"
	"repro/internal/gpu/sim"
	"repro/internal/slc"
	"repro/internal/workloads"
)

// This file is the evaluation table: every paper artefact and every named
// subset of the evaluation matrix is one entry, a cell list plus, for the
// figures and tables, a pure render of the collected cells. `slcbench -fig
// N`, `-table N`, `-ablations`, `-all` and `-matrix NAME` each select an
// entry by name and go down the same path: Evaluate warms the entry's cells
// and collects them into a Trajectory, then Render (or -json) reads that
// trajectory. The evaluation golden (testdata/eval_golden.json) enumerates
// the cells of `all` through here too.

// Matrix is one entry of the evaluation table.
type Matrix struct {
	// Name is the entry name, lowercase, used by `slcbench -matrix`.
	Name string

	// Desc is a one-line description shown by `slcbench -list-matrix`.
	Desc string

	// Cells produces the entry's cells: full cells run the complete
	// measurement (timing, energy, error) through Runner.Run; comp cells
	// run the compression-only pipeline through Runner.CompressionOnly. The
	// function is called per use, so entries defined against the codec or
	// workload registries always reflect the current registered set. It is
	// nil for the tables, which render static configuration.
	Cells func() (full, comp []Cell)

	// Render, when set, is the paper artefact the entry reproduces, as a
	// function of the collected cells alone.
	Render func(*Trajectory) (fmt.Stringer, error)
}

// matrices is the evaluation table. The figure and table entries come
// first, in the order the `all` report prints them.
var matrices []Matrix

func init() {
	matrices = []Matrix{
		{Name: "table2", Desc: "Table II: the baseline simulator configuration",
			Render: func(*Trajectory) (fmt.Stringer, error) { return text(TableII(sim.DefaultConfig())), nil }},
		{Name: "table3", Desc: "Table III: the benchmark suite",
			Render: func(*Trajectory) (fmt.Stringer, error) { return text(TableIII()), nil }},
		{Name: "table1", Desc: "Table I: hardware cost of the compressor and decompressor",
			Render: func(*Trajectory) (fmt.Stringer, error) { return text(TableI()), nil }},
		{Name: "fig1", Desc: "Figure 1: raw vs effective compression ratio of the lossless codecs at 32 B MAG",
			Cells: fig1Cells, Render: render(Figure1)},
		{Name: "fig2", Desc: "Figure 2: E2MC block sizes above a multiple of 32 B MAG, over the Figure 1 compression-only sweep (the full cached CI path)",
			Cells: fig1Cells, Render: render(Figure2)},
		{Name: "fig7", Desc: "Figure 7: speedup and error of the TSLC variants vs E2MC at 32 B MAG",
			Cells: fig7Cells, Render: render(Figure7)},
		{Name: "fig8", Desc: "Figure 8: bandwidth, energy and EDP of the Figure 7 cells",
			Cells: fig7Cells, Render: render(Figure8)},
		{Name: "fig9", Desc: "Figure 9: TSLC-OPT vs E2MC at 16, 32 and 64 B MAG",
			Cells: fig9Cells, Render: render(Figure9)},
		{Name: "ablations", Desc: "the lossy threshold sweep, TSLC-OPT's extra nodes, the prediction policy and the MDC size",
			Cells: ablationCells, Render: render(AblationStudy)},
		{Name: "all", Desc: "every table and figure above, as one report",
			Cells: allCells, Render: report},
		{Name: "lossless-only", Desc: "every registered lossless codec (traits-driven, so new registrations join automatically) × every workload, compression only",
			Cells: losslessCells},
		{Name: "new-codecs", Desc: "the post-paper codec families (lz4b, zcd): compression over every workload plus a timed TP cell each",
			Cells: newCodecCells},
		{Name: "float-workloads", Desc: "the HPC float fields under the sz error-bounded family at the default bound vs lossless comparators, a bound sweep on HPC-S and one timed HPC-S cell",
			Cells: floatCells},
		{Name: "smoke", Desc: "CI's every-push subset: TP under raw/E2MC/TSLC-OPT (timed) and BDI/LZ4B/ZCD (compression only)",
			Cells: smokeCells},
	}
}

// text is a rendered table.
type text string

func (s text) String() string { return string(s) }

// render adapts a typed figure function to Matrix.Render.
func render[F fmt.Stringer](fig func(*Trajectory) (F, error)) func(*Trajectory) (fmt.Stringer, error) {
	return func(t *Trajectory) (fmt.Stringer, error) { return fig(t) }
}

// LookupMatrix returns the entry of the given name.
func LookupMatrix(name string) (Matrix, bool) {
	for _, m := range matrices {
		if m.Name == name {
			return m, true
		}
	}
	return Matrix{}, false
}

// MatrixNames returns all entry names, sorted.
func MatrixNames() []string {
	names := make([]string, len(matrices))
	for i, m := range matrices {
		names[i] = m.Name
	}
	sort.Strings(names)
	return names
}

// MatrixCells resolves an entry name to its cells, with an error naming the
// available set when the name is unknown.
func MatrixCells(name string) (full, comp []Cell, err error) {
	m, ok := LookupMatrix(name)
	if !ok {
		return nil, nil, fmt.Errorf("experiments: unknown matrix subset %q (available: %v)", name, MatrixNames())
	}
	full, comp = m.cells()
	return full, comp, nil
}

func (m Matrix) cells() (full, comp []Cell) {
	if m.Cells == nil {
		return nil, nil
	}
	return m.Cells()
}

// Evaluate is the one path from an entry to its results. It rebuilds the
// entry's error-bounded cells at bound (see WithErrorBound; 0 keeps each
// cell's own), warms the cells on r across workers (RunAll, CompressAll;
// workers ≤ 0 selects GOMAXPROCS) and collects them into a trajectory
// labelled target. Memoisation makes the trajectory identical for every
// worker count.
func (m Matrix) Evaluate(r *Runner, target string, workers int, bound float64) (*Trajectory, error) {
	full, comp := m.cells()
	full, err := WithErrorBound(full, bound)
	if err != nil {
		return nil, err
	}
	if comp, err = WithErrorBound(comp, bound); err != nil {
		return nil, err
	}
	if _, err := r.RunAll(full, workers); err != nil {
		return nil, err
	}
	if err := r.CompressAll(comp, workers); err != nil {
		return nil, err
	}
	return CollectTrajectory(r, target, full, comp)
}

// allCells is the union of the figure and table entries' cells, in report
// order, with each cell once.
func allCells() (full, comp []Cell) {
	seen := make(map[string]bool)
	add := func(cells []Cell, suffix string) []Cell {
		var out []Cell
		for _, c := range cells {
			key := cellKey(c.Workload.Info().Name, c.Config) + suffix
			if !seen[key] {
				seen[key] = true
				out = append(out, c)
			}
		}
		return out
	}
	for _, m := range reportEntries() {
		f, c := m.cells()
		full = append(full, add(f, "")...)
		comp = append(comp, add(c, "|comp")...)
	}
	return full, comp
}

// report renders every figure and table entry, in table order, under one
// heading: the `slcbench -all` report.
func report(t *Trajectory) (fmt.Stringer, error) {
	var b strings.Builder
	b.WriteString("SLC reproduction: all tables and figures\n")
	b.WriteString("========================================\n")
	for _, m := range reportEntries() {
		s, err := m.Render(t)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}
		b.WriteByte('\n')
		b.WriteString(s.String())
	}
	return text(b.String()), nil
}

// reportEntries returns the entries the `all` report is made of: every
// entry with a render except `all` itself.
func reportEntries() []Matrix {
	var out []Matrix
	for _, m := range matrices {
		if m.Render != nil && m.Name != "all" {
			out = append(out, m)
		}
	}
	return out
}

// Fig7Cells returns the full-run cells behind Figures 7 and 8.
func Fig7Cells() []Cell { full, _ := fig7Cells(); return full }

// fig1Cells is the compression-only sweep of Figures 1 and 2: every
// workload under each Figure 1 codec at 32 B MAG (Figure 2 reads the E2MC
// cells).
func fig1Cells() (full, comp []Cell) {
	for _, w := range workloads.Registry() {
		for _, c := range Fig1Codecs {
			comp = append(comp, Cell{w, BaselineConfig(c.Codec, compress.MAG32)})
		}
	}
	return nil, comp
}

// fig7Cells is every workload × (the E2MC baseline and the three TSLC
// variants) at 32 B MAG with the default threshold.
func fig7Cells() (full, comp []Cell) {
	for _, w := range workloads.Registry() {
		full = append(full, Cell{w, E2MCConfig(compress.MAG32)})
		for _, v := range Fig7Variants {
			full = append(full, Cell{w, TSLCConfig(v, compress.MAG32, DefaultThresholdBits)})
		}
	}
	return full, nil
}

// fig9Cells is E2MC and TSLC-OPT (threshold MAG/2) at each Figure 9 MAG
// for every workload.
func fig9Cells() (full, comp []Cell) {
	for _, w := range workloads.Registry() {
		for _, mag := range Fig9MAGs {
			full = append(full, Cell{w, E2MCConfig(mag)}, Cell{w, TSLCConfig(slc.OPT, mag, mag.Bits()/2)})
		}
	}
	return full, nil
}

// ablationCells is the threshold sweep over every workload plus the
// PRED/SIMP comparison cells. The extra-node ablation needs PRED on DCT;
// the prediction-policy ablation needs SIMP and PRED on NN (OPT@t16B is in
// the sweep).
func ablationCells() (full, comp []Cell) {
	for _, w := range workloads.Registry() {
		full = append(full, Cell{w, E2MCConfig(compress.MAG32)})
		for _, tb := range ablationThresholds {
			full = append(full, Cell{w, TSLCConfig(slc.OPT, compress.MAG32, tb*8)})
		}
	}
	if dct, ok := workloadByName("DCT"); ok {
		full = append(full, Cell{dct, TSLCConfig(slc.PRED, compress.MAG32, DefaultThresholdBits)})
	}
	if nn, ok := workloadByName("NN"); ok {
		full = append(full,
			Cell{nn, TSLCConfig(slc.SIMP, compress.MAG32, DefaultThresholdBits)},
			Cell{nn, TSLCConfig(slc.PRED, compress.MAG32, DefaultThresholdBits)})
	}
	return full, nil
}

func losslessCells() (full, comp []Cell) {
	for _, w := range workloads.Registry() {
		for _, name := range compress.Names() {
			info, ok := compress.Lookup(name)
			if !ok || info.Lossy || info.Identity {
				continue
			}
			comp = append(comp, Cell{w, BaselineConfig(name, compress.MAG32)})
		}
	}
	return nil, comp
}

func newCodecCells() (full, comp []Cell) {
	for _, w := range workloads.Registry() {
		for _, name := range NewCodecNames {
			comp = append(comp, Cell{w, BaselineConfig(name, compress.MAG32)})
		}
	}
	if tp, ok := workloadByName("TP"); ok {
		for _, name := range NewCodecNames {
			full = append(full, Cell{tp, BaselineConfig(name, compress.MAG32)})
		}
	}
	return full, comp
}

func floatCells() (full, comp []Cell) {
	for _, w := range workloads.FloatRegistry() {
		for _, name := range BoundedCodecNames {
			comp = append(comp, Cell{w, BoundedConfig(name, compress.MAG32, 0)})
		}
		for _, name := range FloatComparatorNames {
			comp = append(comp, Cell{w, BaselineConfig(name, compress.MAG32)})
		}
	}
	if s, ok := workloadByName("HPC-S"); ok {
		for _, bound := range []float64{1e-2, 1e-4} {
			comp = append(comp, Cell{s, BoundedConfig("sz-lorenzo", compress.MAG32, bound)})
		}
		full = append(full, Cell{s, BoundedConfig("sz-lorenzo", compress.MAG32, 0)})
	}
	return full, comp
}

func smokeCells() (full, comp []Cell) {
	tp, ok := workloadByName("TP")
	if !ok {
		return nil, nil
	}
	full = []Cell{
		{tp, BaselineConfig("raw", compress.MAG32)},
		{tp, E2MCConfig(compress.MAG32)},
		{tp, TSLCConfig(slc.OPT, compress.MAG32, DefaultThresholdBits)},
	}
	for _, name := range append([]string{"bdi"}, NewCodecNames...) {
		comp = append(comp, Cell{tp, BaselineConfig(name, compress.MAG32)})
	}
	return full, comp
}

// workloadByName scans the workload registries (paper and float); a missing
// name yields no cells rather than an error, so cell lists stay total
// functions.
func workloadByName(name string) (workloads.Workload, bool) {
	for _, w := range workloads.All() {
		if w.Info().Name == name {
			return w, true
		}
	}
	return nil, false
}

// WithErrorBound returns a copy of cells with every error-bounded cell's
// configuration rebuilt at the given bound; bound 0 keeps each cell's own.
// Lossless and threshold-lossy cells pass through untouched, so the helper
// can be applied to any entry (slcbench's -bound flag applies it to the
// selected one).
func WithErrorBound(cells []Cell, bound float64) ([]Cell, error) {
	if bound == 0 {
		return cells, nil
	}
	out := make([]Cell, len(cells))
	for i, c := range cells {
		out[i] = c
		info, ok := compress.Lookup(c.Config.Codec)
		if !ok || !info.LossyBounded {
			continue
		}
		cfg, err := NamedConfig(c.Config.Codec, c.Config.MAG, c.Config.ThresholdBits, bound)
		if err != nil {
			return nil, err
		}
		out[i].Config = cfg
	}
	return out, nil
}

// NewCodecNames are the codec families added after the paper's original
// evaluation set; the new-codecs subset and the README codec table track
// them.
var NewCodecNames = []string{"lz4b", "zcd"}

// BoundedCodecNames are the error-bounded scientific-float codec families
// (the sz predictors); the float-workloads subset and the README codec table
// track them.
var BoundedCodecNames = []string{"sz-lorenzo", "sz-linear"}

// FloatComparatorNames are the lossless codecs the float-workloads subset
// runs beside the sz family: the float-specialised fpc, the entropy coder
// and the byte-oriented lz4b.
var FloatComparatorNames = []string{"fpc", "e2mc", "lz4b"}
