package workloads

import (
	"sync"

	"repro/internal/compress"
	"repro/internal/metrics"
)

// tp is the CUDA SDK matrix transpose benchmark: a pure data-movement kernel
// over a 1024×1024 float matrix, tiled 32×32 so both the loads and stores
// are coalesced. Input and output matrices are safe to approximate
// (Table III: #AR 2).
type tp struct {
	dim   int
	input func() grayLevels // the input matrix, built once and shared read-only
}

// NewTP returns the TP workload (paper input: 1024×1024).
func NewTP() Workload {
	const dim = 1024
	return &tp{dim: dim, input: sync.OnceValue(func() grayLevels { return smoothImage(dim, dim, 3003) })}
}

// Info implements Workload.
func (w *tp) Info() Info {
	return Info{
		Name:   "TP",
		Short:  "Matrix transpose",
		Input:  "1024×1024",
		Metric: metrics.NRMSE,
		AR:     2,
	}
}

// Run implements Workload.
func (w *tp) Run(ctx *Ctx) ([]float64, error) {
	n := w.dim * w.dim
	in, err := ctx.Dev.Malloc("tp.in", n*4, true)
	if err != nil {
		return nil, err
	}
	out, err := ctx.Dev.Malloc("tp.out", n*4, true)
	if err != nil {
		return nil, err
	}
	if err := copyInImage(ctx, in, w.input(), nil); err != nil {
		return nil, err
	}

	vi, vo := ctx.Dev.F32View(in), ctx.Dev.F32View(out)
	for y := 0; y < w.dim; y++ {
		for x := 0; x < w.dim; x++ {
			vo.Set(x*w.dim+y, vi.At(y*w.dim+x))
		}
	}
	ctx.Sync(out)

	// Tiled transpose: per 32×32 tile, 32 coalesced row reads from the
	// input and 32 coalesced row writes to the output. One warp per tile;
	// warp order follows the tile raster, keeping the resident window
	// contiguous.
	if ctx.Rec != nil {
		tiles := w.dim / 32
		rowBlocks := w.dim / floatsPerBlock
		ctx.Rec.BeginKernel("transposeCoalesced", tiles*tiles)
		for ty := 0; ty < tiles; ty++ {
			for tx := 0; tx < tiles; tx++ {
				wp := ty*tiles + tx
				for r := 0; r < 32; r++ {
					b := (ty*32+r)*rowBlocks + tx
					ctx.Rec.Access(wp, in.Addr+uint64(b)*compress.BlockSize, false, 2)
				}
				for r := 0; r < 32; r++ {
					b := (tx*32+r)*rowBlocks + ty
					ctx.Rec.Access(wp, out.Addr+uint64(b)*compress.BlockSize, true, 2)
				}
			}
		}
	}
	return readOut(ctx, out, n)
}
