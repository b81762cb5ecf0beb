package workloads

import (
	"math"

	"repro/internal/compress"
	"repro/internal/metrics"
)

// nn is the Rodinia nearest-neighbor benchmark: Euclidean distance from
// every (lat, lng) record to a query point. Both the record array and the
// distance output are safe to approximate (Table III: #AR 2). It is the most
// purely bandwidth-bound workload of the suite, which is why the paper sees
// its largest speedup (35% at 64 B MAG) here.
type nn struct {
	n int
}

// NewNN returns the NN workload (paper input: 20 M records; scaled to 1 M).
func NewNN() Workload { return &nn{n: 1 << 20} }

// Info implements Workload.
func (w *nn) Info() Info {
	return Info{
		Name:   "NN",
		Short:  "Nearest neighbors",
		Input:  "1 M records",
		Metric: metrics.MRE,
		AR:     2,
	}
}

// Run implements Workload.
func (w *nn) Run(ctx *Ctx) ([]float64, error) {
	loc, err := ctx.Dev.Malloc("nn.locations", w.n*2*4, true)
	if err != nil {
		return nil, err
	}
	dist, err := ctx.Dev.Malloc("nn.distances", w.n*4, true)
	if err != nil {
		return nil, err
	}
	if err := copyIn(ctx, loc, clusteredCoords(w.n, 2002)); err != nil {
		return nil, err
	}

	const qLat, qLng = 38.5, -98.3 // query point
	vl, vd := ctx.Dev.F32View(loc), ctx.Dev.F32View(dist)
	for i := 0; i < w.n; i++ {
		lat, lng := vl.At(2*i), vl.At(2*i+1)
		d := float32(math.Sqrt(float64((lat-qLat)*(lat-qLat) + (lng-qLng)*(lng-qLng))))
		vd.Set(i, d)
	}
	ctx.Sync(dist)

	// Each record block (16 records) produces half a distance block; the
	// kernel reads two location blocks per distance block written.
	if ctx.Rec != nil {
		locBlocks := blocksForFloats(w.n * 2)
		ctx.Rec.BeginKernel("euclid", warpsFor(locBlocks))
		for b := 0; b < locBlocks; b++ {
			wp := warpOf(b)
			ctx.Rec.Access(wp, loc.Addr+uint64(b)*compress.BlockSize, false, 4)
			if b%2 == 1 {
				ctx.Rec.Access(wp, dist.Addr+uint64(b/2)*compress.BlockSize, true, 4)
			}
		}
	}
	return readOut(ctx, dist, w.n)
}
