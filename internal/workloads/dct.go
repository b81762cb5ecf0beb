package workloads

import (
	"math"
	"sync"

	"repro/internal/compress"
	"repro/internal/metrics"
)

// dct is the CUDA SDK DCT8x8 benchmark: a forward 8×8 discrete cosine
// transform over a 1024×1024 image, the JPEG/video building block. Input and
// output images are safe to approximate (Table III: #AR 2). The paper's
// largest 32 B-MAG speedup (≈17%) comes from this workload.
type dct struct {
	dim   int
	input func() grayLevels // the input image, built once and shared read-only
}

// NewDCT returns the DCT workload (paper input: 1024×1024 image).
func NewDCT() Workload {
	const dim = 1024
	return &dct{dim: dim, input: sync.OnceValue(func() grayLevels { return smoothImage(dim, dim, 4004) })}
}

// Info implements Workload.
func (w *dct) Info() Info {
	return Info{
		Name:   "DCT",
		Short:  "Discrete cosine transform",
		Input:  "1024×1024 image",
		Metric: metrics.ImageDiff,
		AR:     2,
	}
}

// dctBasis precomputes the 8×8 DCT-II basis in float32.
func dctBasis() [8][8]float32 {
	var c [8][8]float32
	for k := 0; k < 8; k++ {
		a := math.Sqrt(0.25)
		if k == 0 {
			a = math.Sqrt(0.125)
		}
		for n := 0; n < 8; n++ {
			c[k][n] = float32(a * math.Cos(math.Pi*float64(k)*(2*float64(n)+1)/16))
		}
	}
	return c
}

// Run implements Workload.
func (w *dct) Run(ctx *Ctx) ([]float64, error) {
	n := w.dim * w.dim
	in, err := ctx.Dev.Malloc("dct.in", n*4, true)
	if err != nil {
		return nil, err
	}
	out, err := ctx.Dev.Malloc("dct.out", n*4, true)
	if err != nil {
		return nil, err
	}
	if err := copyInImage(ctx, in, w.input(), nil); err != nil {
		return nil, err
	}

	basis := dctBasis()
	vi, vo := ctx.Dev.F32View(in), ctx.Dev.F32View(out)
	var tile, tmp [8][8]float32
	for by := 0; by < w.dim; by += 8 {
		for bx := 0; bx < w.dim; bx += 8 {
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					tile[y][x] = vi.At((by+y)*w.dim + bx + x)
				}
			}
			// Rows then columns: out = C · tile · Cᵀ.
			for y := 0; y < 8; y++ {
				for k := 0; k < 8; k++ {
					var s float32
					for x := 0; x < 8; x++ {
						s += basis[k][x] * tile[y][x]
					}
					tmp[y][k] = s
				}
			}
			for k := 0; k < 8; k++ {
				for x := 0; x < 8; x++ {
					var s float32
					for y := 0; y < 8; y++ {
						s += basis[k][y] * tmp[y][x]
					}
					vo.Set((by+k)*w.dim+bx+x, s)
				}
			}
		}
	}
	ctx.Sync(out)

	// Trace: each warp handles a 32-pixel-wide strip of a tile row — 8
	// coalesced row reads and 8 row writes covering four 8×8 tiles.
	if ctx.Rec != nil {
		rowBlocks := w.dim / floatsPerBlock
		ctx.Rec.BeginKernel("CUDAkernel1DCT", (w.dim/8)*rowBlocks)
		for tr := 0; tr < w.dim/8; tr++ {
			for strip := 0; strip < rowBlocks; strip++ {
				wp := tr*rowBlocks + strip
				for r := 0; r < 8; r++ {
					b := (tr*8+r)*rowBlocks + strip
					ctx.Rec.Access(wp, in.Addr+uint64(b)*compress.BlockSize, false, 4)
				}
				for r := 0; r < 8; r++ {
					b := (tr*8+r)*rowBlocks + strip
					ctx.Rec.Access(wp, out.Addr+uint64(b)*compress.BlockSize, true, 4)
				}
			}
		}
	}
	return readOut(ctx, out, n)
}
