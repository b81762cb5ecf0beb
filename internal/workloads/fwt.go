package workloads

import (
	"sync"

	"repro/internal/compress"
	"repro/internal/metrics"
)

// fwt is the CUDA SDK fast Walsh–Hadamard transform: log₂(N) butterfly
// passes ping-ponging between two buffers, both safe to approximate
// (Table III: #AR 2). Because every pass re-reads what the previous pass
// wrote, approximation errors feed back — the effect the paper discusses
// when comparing the TSLC variants.
type fwt struct {
	n     int
	input func() []float32 // the input signal, built once and shared read-only
}

// NewFWT returns the FWT workload (paper input: 8 M elements; scaled to 256 K).
func NewFWT() Workload {
	const n = 256 << 10
	return &fwt{n: n, input: sync.OnceValue(func() []float32 { return quantizedSignal(n, 1.0/256, 5005) })}
}

// Info implements Workload.
func (w *fwt) Info() Info {
	return Info{
		Name:   "FWT",
		Short:  "Fast Walsh transform",
		Input:  "256 K elements",
		Metric: metrics.NRMSE,
		AR:     2,
	}
}

// Run implements Workload.
func (w *fwt) Run(ctx *Ctx) ([]float64, error) {
	a, err := ctx.Dev.Malloc("fwt.a", w.n*4, true)
	if err != nil {
		return nil, err
	}
	b, err := ctx.Dev.Malloc("fwt.b", w.n*4, true)
	if err != nil {
		return nil, err
	}
	if err := copyIn(ctx, a, w.input()); err != nil {
		return nil, err
	}

	blocks := blocksForFloats(w.n)
	src, dst := a, b
	vsrc, vdst := ctx.Dev.F32View(a), ctx.Dev.F32View(b)
	for h := 1; h < w.n; h <<= 1 {
		// Butterfly pass: (x, y) → (x+y, x−y) over pairs at stride h.
		for i := 0; i < w.n; i += 2 * h {
			for j := i; j < i+h; j++ {
				x, y := vsrc.At(j), vsrc.At(j+h)
				vdst.Set(j, x+y)
				vdst.Set(j+h, x-y)
			}
		}
		ctx.Sync(dst)

		if ctx.Rec != nil {
			ctx.Rec.BeginKernel("fwtBatch", warpsFor(blocks))
			strideBlocks := h / floatsPerBlock
			for blk := 0; blk < blocks; blk++ {
				wp := warpOf(blk)
				ctx.Rec.Access(wp, src.Addr+uint64(blk)*compress.BlockSize, false, 4)
				if strideBlocks > 0 {
					partner := blk ^ strideBlocks
					ctx.Rec.Access(wp, src.Addr+uint64(partner)*compress.BlockSize, false, 2)
				}
				ctx.Rec.Access(wp, dst.Addr+uint64(blk)*compress.BlockSize, true, 2)
			}
		}
		src, dst = dst, src
		vsrc, vdst = vdst, vsrc
	}
	return readOut(ctx, src, w.n)
}
