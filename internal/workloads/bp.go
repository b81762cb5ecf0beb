package workloads

import (
	"math"

	"repro/internal/compress"
	"repro/internal/metrics"
)

// bp is the Rodinia backprop benchmark: one training step of a two-layer
// perceptron (64 K input units, 16 hidden units) — a forward pass followed
// by a weight-adjustment pass over the large input-to-hidden weight matrix.
// Six regions are annotated safe-to-approximate (Table III: #AR 6): inputs,
// both weight matrices, the momentum array and the two delta vectors.
type bp struct {
	in, hidden int
}

// NewBP returns the BP workload (paper input: 64 K elements).
func NewBP() Workload { return &bp{in: 64 << 10, hidden: 16} }

// Info implements Workload.
func (w *bp) Info() Info {
	return Info{
		Name:   "BP",
		Short:  "Perceptron training",
		Input:  "64 K elements",
		Metric: metrics.MRE,
		AR:     6,
	}
}

func sigmoid(x float32) float32 {
	return float32(1.0 / (1.0 + math.Exp(-float64(x))))
}

// Run implements Workload.
func (w *bp) Run(ctx *Ctx) ([]float64, error) {
	nw := w.in * w.hidden
	x, err := ctx.Dev.Malloc("bp.input", w.in*4, true)
	if err != nil {
		return nil, err
	}
	w1, err := ctx.Dev.Malloc("bp.w1", nw*4, true)
	if err != nil {
		return nil, err
	}
	prev, err := ctx.Dev.Malloc("bp.prev_w", nw*4, true)
	if err != nil {
		return nil, err
	}
	w2, err := ctx.Dev.Malloc("bp.w2", w.hidden*4, true)
	if err != nil {
		return nil, err
	}
	hid, err := ctx.Dev.Malloc("bp.hidden", w.hidden*4, true)
	if err != nil {
		return nil, err
	}
	deltas, err := ctx.Dev.Malloc("bp.delta", w.hidden*4, true)
	if err != nil {
		return nil, err
	}

	// Rodinia's bpnn_randomize_weights draws weights uniformly from [0, 1);
	// quantisation mirrors its float conversion granularity.
	rng := newRNG(7007)
	xv := make([]float32, w.in)
	for i := range xv {
		xv[i] = rng.uniform(0, 1, 1.0/256)
	}
	w1v := make([]float32, nw)
	for i := range w1v {
		w1v[i] = rng.uniform(0, 1, 1.0/2048)
	}
	w2v := make([]float32, w.hidden)
	for i := range w2v {
		w2v[i] = rng.uniform(0, 1, 1.0/2048)
	}
	if err := copyIn(ctx, x, xv); err != nil {
		return nil, err
	}
	if err := copyIn(ctx, w1, w1v); err != nil {
		return nil, err
	}
	if err := copyIn(ctx, prev, make([]float32, nw)); err != nil {
		return nil, err
	}
	if err := copyIn(ctx, w2, w2v); err != nil {
		return nil, err
	}

	vx, vw1 := ctx.Dev.F32View(x), ctx.Dev.F32View(w1)
	vprev, vw2 := ctx.Dev.F32View(prev), ctx.Dev.F32View(w2)
	vhid, vdelta := ctx.Dev.F32View(hid), ctx.Dev.F32View(deltas)

	// Kernel 1 — layerforward: h_j = σ(Σ_i x_i · w1[i·H + j]).
	sums := make([]float32, w.hidden)
	for i := 0; i < w.in; i++ {
		xi := vx.At(i)
		for j := 0; j < w.hidden; j++ {
			sums[j] += xi * vw1.At(i*w.hidden+j)
		}
	}
	outSum := float32(0)
	for j := 0; j < w.hidden; j++ {
		h := sigmoid(sums[j] / float32(w.in))
		vhid.Set(j, h)
		outSum += h * vw2.At(j)
	}
	ctx.Sync(hid)
	output := sigmoid(outSum)

	wBlocks := blocksForFloats(nw)
	// layerforward trace is emitted now, while the blocks carry their
	// pre-update (copy-in) compression geometry.
	if ctx.Rec != nil {
		ctx.Rec.BeginKernel("bpnn_layerforward", warpsFor(wBlocks))
		for b := 0; b < wBlocks; b++ {
			wp := warpOf(b)
			if b%w.hidden == 0 {
				ctx.Rec.Access(wp, x.Addr+uint64(b/w.hidden)*compress.BlockSize, false, 6)
			}
			ctx.Rec.Access(wp, w1.Addr+uint64(b)*compress.BlockSize, false, 6)
		}
	}

	// Host-side deltas (tiny), then kernel 2 — adjust_weights.
	const target = 0.75
	deltaOut := output * (1 - output) * (target - output)
	for j := 0; j < w.hidden; j++ {
		h := vhid.At(j)
		vdelta.Set(j, h*(1-h)*vw2.At(j)*deltaOut)
	}
	ctx.Sync(deltas)

	const eta, momentum = 0.3, 0.3
	for i := 0; i < w.in; i++ {
		xi := vx.At(i)
		for j := 0; j < w.hidden; j++ {
			k := i*w.hidden + j
			adj := eta*vdelta.At(j)*xi + momentum*vprev.At(k)
			vw1.Set(k, vw1.At(k)+adj)
			vprev.Set(k, adj)
		}
	}

	// adjust_weights: the reads carry the pre-update compression geometry,
	// the writes the post-update one, so the trace is emitted around the
	// region sync.
	if ctx.Rec != nil {
		ctx.Rec.BeginKernel("bpnn_adjust_weights", warpsFor(wBlocks))
		for b := 0; b < wBlocks; b++ {
			wp := warpOf(b)
			if b%w.hidden == 0 {
				ctx.Rec.Access(wp, x.Addr+uint64(b/w.hidden)*compress.BlockSize, false, 4)
			}
			ctx.Rec.Access(wp, w1.Addr+uint64(b)*compress.BlockSize, false, 4)
			ctx.Rec.Access(wp, prev.Addr+uint64(b)*compress.BlockSize, false, 4)
		}
	}
	ctx.Sync(w1)
	ctx.Sync(prev)
	if ctx.Rec != nil {
		for b := 0; b < wBlocks; b++ {
			wp := warpOf(b)
			ctx.Rec.Access(wp, w1.Addr+uint64(b)*compress.BlockSize, true, 4)
			ctx.Rec.Access(wp, prev.Addr+uint64(b)*compress.BlockSize, true, 4)
		}
	}

	// Output: hidden activations, network output and a stride sample of the
	// adjusted weights.
	out := []float64{float64(output)}
	for j := 0; j < w.hidden; j++ {
		out = append(out, float64(vhid.At(j)))
	}
	for k := 0; k < nw; k += 499 {
		out = append(out, float64(vw1.At(k)))
	}
	return out, nil
}
