package workloads

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/compress"
	"repro/internal/gpu/device"
	"repro/internal/metrics"
)

// srad implements the Rodinia SRAD benchmark (speckle-reducing anisotropic
// diffusion) in its two GPU formulations. SRAD1 follows srad_v1: the
// per-iteration statistics reduce plus two kernels that materialise all four
// directional derivatives and the diffusion coefficient (8 approximable
// regions). SRAD2 follows srad_v2: a fused formulation that caches only the
// north/south derivatives and recomputes the in-row ones (6 approximable
// regions). Both run the same diffusion mathematically; they differ in
// memory traffic — exactly how the two variants differ in Rodinia.
type srad struct {
	name  string
	dim   int
	iters int
	full  bool              // SRAD1 materialises dW/dE and the coefficient stencil
	input func() grayLevels // the input image, built once and shared read-only
}

// newSRAD builds an SRAD workload over a 512×512 image.
func newSRAD(name string, full bool) *srad {
	const dim = 512
	return &srad{name: name, dim: dim, iters: 4, full: full,
		input: sync.OnceValue(func() grayLevels { return smoothImage(dim, dim, 8008) })}
}

// NewSRAD1 returns the SRAD1 workload (paper input: 1024²; scaled to 512²).
func NewSRAD1() Workload { return newSRAD("SRAD1", true) }

// NewSRAD2 returns the SRAD2 workload.
func NewSRAD2() Workload { return newSRAD("SRAD2", false) }

// Info implements Workload.
func (w *srad) Info() Info {
	ar := 6
	if w.full {
		ar = 8
	}
	return Info{
		Name:   w.name,
		Short:  "Anisotropic diffusion",
		Input:  fmt.Sprintf("%d×%d image", w.dim, w.dim),
		Metric: metrics.ImageDiff,
		AR:     ar,
	}
}

// Run implements Workload.
func (w *srad) Run(ctx *Ctx) ([]float64, error) {
	n := w.dim * w.dim
	alloc := func(name string, elems int) (device.Region, error) {
		return ctx.Dev.Malloc("srad."+name, elems*4, true)
	}
	img, err := alloc("I", n)
	if err != nil {
		return nil, err
	}
	j, err := alloc("J", n)
	if err != nil {
		return nil, err
	}
	c, err := alloc("c", n)
	if err != nil {
		return nil, err
	}
	dn, err := alloc("dN", n)
	if err != nil {
		return nil, err
	}
	ds, err := alloc("dS", n)
	if err != nil {
		return nil, err
	}
	blocks := blocksForFloats(n)
	sums, err := alloc("sums", 2*blocks)
	if err != nil {
		return nil, err
	}
	var dw, de device.Region
	if w.full {
		if dw, err = alloc("dW", n); err != nil {
			return nil, err
		}
		if de, err = alloc("dE", n); err != nil {
			return nil, err
		}
	}

	if err := copyInImage(ctx, img, w.input(), nil); err != nil {
		return nil, err
	}
	// J = exp(I), the Rodinia pre-scaling (keeps J strictly positive).
	exp := func(p float32) float32 { return float32(math.Exp(float64(p))) }
	if err := copyInImage(ctx, j, w.input(), exp); err != nil {
		return nil, err
	}

	vj, vc := ctx.Dev.F32View(j), ctx.Dev.F32View(c)
	vdn, vds := ctx.Dev.F32View(dn), ctx.Dev.F32View(ds)
	vsums := ctx.Dev.F32View(sums)
	var vdw, vde device.F32
	if w.full {
		vdw, vde = ctx.Dev.F32View(dw), ctx.Dev.F32View(de)
	}

	const lambda = 0.5
	dim := w.dim
	clamp := func(i int) int {
		if i < 0 {
			return 0
		}
		if i >= dim {
			return dim - 1
		}
		return i
	}
	rowBlocks := dim / floatsPerBlock

	for it := 0; it < w.iters; it++ {
		// Statistics reduce: per-block partial sums, then q0² on the host.
		var tot, tot2 float64
		for b := 0; b < blocks; b++ {
			var s, s2 float32
			for k := b * floatsPerBlock; k < (b+1)*floatsPerBlock; k++ {
				v := vj.At(k)
				s += v
				s2 += v * v
			}
			vsums.Set(2*b, s)
			vsums.Set(2*b+1, s2)
			tot += float64(s)
			tot2 += float64(s2)
		}
		ctx.Sync(sums)
		mean := tot / float64(n)
		variance := tot2/float64(n) - mean*mean
		q0sqr := float32(variance / (mean * mean))
		if q0sqr <= 0 {
			q0sqr = 1e-6
		}

		// Kernel 1: derivatives and diffusion coefficient.
		for y := 0; y < dim; y++ {
			for x := 0; x < dim; x++ {
				k := y*dim + x
				jc := vj.At(k)
				dN := vj.At(clamp(y-1)*dim+x) - jc
				dS := vj.At(clamp(y+1)*dim+x) - jc
				dW := vj.At(y*dim+clamp(x-1)) - jc
				dE := vj.At(y*dim+clamp(x+1)) - jc
				g2 := (dN*dN + dS*dS + dW*dW + dE*dE) / (jc * jc)
				l := (dN + dS + dW + dE) / jc
				num := 0.5*g2 - 0.0625*l*l
				den := 1 + 0.25*l
				qsqr := num / (den * den)
				cv := 1.0 / (1.0 + (qsqr-q0sqr)/(q0sqr*(1+q0sqr)))
				if cv < 0 {
					cv = 0
				} else if cv > 1 {
					cv = 1
				}
				vc.Set(k, cv)
				vdn.Set(k, dN)
				vds.Set(k, dS)
				if w.full {
					vdw.Set(k, dW)
					vde.Set(k, dE)
				}
			}
		}
		ctx.Sync(c)
		ctx.Sync(dn)
		ctx.Sync(ds)
		if w.full {
			ctx.Sync(dw)
			ctx.Sync(de)
		}

		// Kernel 2: diffusion update, in place.
		for y := 0; y < dim; y++ {
			for x := 0; x < dim; x++ {
				k := y*dim + x
				jc := vj.At(k)
				cC := vc.At(k)
				cS := vc.At(clamp(y+1)*dim + x)
				cE := vc.At(y*dim + clamp(x+1))
				var dW, dE float32
				if w.full {
					dW, dE = vdw.At(k), vde.At(k)
				} else {
					dW = vj.At(y*dim+clamp(x-1)) - jc
					dE = vj.At(y*dim+clamp(x+1)) - jc
				}
				d := cC*(vdn.At(k)+dW) + cS*vds.At(k) + cE*dE
				vj.Set(k, jc+0.25*lambda*d)
			}
		}
		ctx.Sync(j)

		w.emitIteration(ctx, j, c, dn, ds, dw, de, sums, blocks, rowBlocks)
	}
	return readOut(ctx, j, n)
}

// emitIteration records the three kernels of one diffusion step.
func (w *srad) emitIteration(ctx *Ctx, j, c, dn, ds, dw, de, sums device.Region, blocks, rowBlocks int) {
	if ctx.Rec == nil {
		return
	}
	warps := warpsFor(blocks)
	blockAddr := func(r device.Region, b int) uint64 {
		return r.Addr + uint64(b)*compress.BlockSize
	}
	clampB := func(b int) int {
		if b < 0 {
			return 0
		}
		if b >= blocks {
			return blocks - 1
		}
		return b
	}

	ctx.Rec.BeginKernel("srad_reduce", warps)
	for b := 0; b < blocks; b++ {
		wp := warpOf(b)
		ctx.Rec.Access(wp, blockAddr(j, b), false, 4)
		if b%(floatsPerBlock/2) == 0 {
			ctx.Rec.Access(wp, blockAddr(sums, b/(floatsPerBlock/2)), true, 4)
		}
	}

	ctx.Rec.BeginKernel("srad_k1", warps)
	for b := 0; b < blocks; b++ {
		wp := warpOf(b)
		ctx.Rec.Access(wp, blockAddr(j, b), false, 8)
		ctx.Rec.Access(wp, blockAddr(j, clampB(b-rowBlocks)), false, 2)
		ctx.Rec.Access(wp, blockAddr(j, clampB(b+rowBlocks)), false, 2)
		ctx.Rec.Access(wp, blockAddr(c, b), true, 2)
		ctx.Rec.Access(wp, blockAddr(dn, b), true, 2)
		ctx.Rec.Access(wp, blockAddr(ds, b), true, 2)
		if w.full {
			ctx.Rec.Access(wp, blockAddr(dw, b), true, 2)
			ctx.Rec.Access(wp, blockAddr(de, b), true, 2)
		}
	}

	ctx.Rec.BeginKernel("srad_k2", warps)
	for b := 0; b < blocks; b++ {
		wp := warpOf(b)
		ctx.Rec.Access(wp, blockAddr(j, b), false, 8)
		ctx.Rec.Access(wp, blockAddr(c, b), false, 2)
		ctx.Rec.Access(wp, blockAddr(c, clampB(b+rowBlocks)), false, 2)
		ctx.Rec.Access(wp, blockAddr(dn, b), false, 2)
		ctx.Rec.Access(wp, blockAddr(ds, b), false, 2)
		if w.full {
			ctx.Rec.Access(wp, blockAddr(dw, b), false, 2)
			ctx.Rec.Access(wp, blockAddr(de, b), false, 2)
		}
		ctx.Rec.Access(wp, blockAddr(j, b), true, 2)
	}
}
