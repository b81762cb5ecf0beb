package workloads

import (
	"repro/internal/gpu/device"
	"repro/internal/metrics"
)

// HPC float-field workloads (ROADMAP item 2): three streaming kernels over
// the full-precision fields of floatgen.go. They are not part of the
// paper's Table III suite — Registry() and the paper figures are unchanged
// — but open the scenario class the error-bounded sz family targets, where
// "safe to approximate" means a user-supplied error bound rather than an
// output-quality metric alone.

// hpcField is one streaming workload: generate a field, run a cheap
// elementwise kernel over it, and evaluate the output. All regions are
// safe to approximate (#AR 2), so the bounded codec serves everything.
type hpcField struct {
	name   string
	short  string
	kernel string
	n      int
	seed   uint64
	gen    func(n int, seed uint64) []float32
	step   func(in, out []float32)
}

const hpcN = 256 << 10

// NewHPCSmooth returns the smooth sinusoidal field workload: a 3-point
// Jacobi smoothing step, the canonical stencil over a CFD/climate slice.
func NewHPCSmooth() Workload {
	return &hpcField{
		name: "HPC-S", short: "Smooth HPC field (stencil)", kernel: "hpcStencil",
		n: hpcN, seed: 9101, gen: SmoothField,
		step: func(in, out []float32) {
			n := len(in)
			out[0] = in[0]
			out[n-1] = in[n-1]
			for i := 1; i < n-1; i++ {
				out[i] = 0.25*in[i-1] + 0.5*in[i] + 0.25*in[i+1]
			}
		},
	}
}

// NewHPCTurbulent returns the turbulent multi-scale noise workload: a
// central-difference gradient, the first step of any spectral analysis.
func NewHPCTurbulent() Workload {
	return &hpcField{
		name: "HPC-T", short: "Turbulent HPC field (gradient)", kernel: "hpcGradient",
		n: hpcN, seed: 9103, gen: TurbulentField,
		step: func(in, out []float32) {
			n := len(in)
			out[0] = in[1] - in[0]
			out[n-1] = in[n-1] - in[n-2]
			for i := 1; i < n-1; i++ {
				out[i] = 0.5 * (in[i+1] - in[i-1])
			}
		},
	}
}

// NewHPCSparse returns the sparse/spiky field workload: an axpy-style
// scale-and-shift that preserves sparsity.
func NewHPCSparse() Workload {
	return &hpcField{
		name: "HPC-X", short: "Sparse HPC field (axpy)", kernel: "hpcAxpy",
		n: hpcN, seed: 9107, gen: SparseField,
		step: func(in, out []float32) {
			for i, v := range in {
				out[i] = 1.5*v + 0.25*v
			}
		},
	}
}

// Info implements Workload.
func (w *hpcField) Info() Info {
	return Info{
		Name:   w.name,
		Short:  w.short,
		Input:  "256 K floats",
		Metric: metrics.NRMSE,
		AR:     2,
	}
}

// Run implements Workload.
func (w *hpcField) Run(ctx *Ctx) ([]float64, error) {
	in, err := ctx.Dev.Malloc(w.name+".in", w.n*4, true)
	if err != nil {
		return nil, err
	}
	out, err := ctx.Dev.Malloc(w.name+".out", w.n*4, true)
	if err != nil {
		return nil, err
	}
	if err := copyIn(ctx, in, w.gen(w.n, w.seed)); err != nil {
		return nil, err
	}

	vin, vout := ctx.Dev.F32View(in), ctx.Dev.F32View(out)
	src := make([]float32, w.n)
	dst := make([]float32, w.n)
	for i := 0; i < w.n; i++ {
		src[i] = vin.At(i)
	}
	w.step(src, dst)
	for i, v := range dst {
		vout.Set(i, v)
	}
	ctx.Sync(out)
	emitStream(ctx, streamSpec{
		Name:    w.kernel,
		Reads:   []device.Region{in},
		Writes:  []device.Region{out},
		Blocks:  blocksForFloats(w.n),
		Compute: 2,
	})
	return readOut(ctx, out, w.n)
}
