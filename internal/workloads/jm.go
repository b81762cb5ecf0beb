package workloads

import (
	"repro/internal/compress"
	"repro/internal/gpu/device"
	"repro/internal/metrics"
)

// jm is the AxBench jmeint benchmark: Möller's triangle–triangle
// intersection test over a large batch of triangle pairs. The six vertex
// arrays (three per triangle) are safe to approximate; the boolean output is
// exact (Table III: #AR 6). The output is a hard decision, so a small input
// perturbation can flip it — the reason the paper's highest error (7.3% miss
// rate) occurs here.
type jm struct {
	n int
}

// NewJM returns the JM workload (paper input: 400 K pairs; scaled to 200 K).
func NewJM() Workload { return &jm{n: 200 << 10} }

// Info implements Workload.
func (w *jm) Info() Info {
	return Info{
		Name:   "JM",
		Short:  "Intersection of triangles",
		Input:  "200 K tri. pairs",
		Metric: metrics.MissRate,
		AR:     6,
	}
}

type vec3 struct{ x, y, z float32 }

func sub(a, b vec3) vec3    { return vec3{a.x - b.x, a.y - b.y, a.z - b.z} }
func cross(a, b vec3) vec3  { return vec3{a.y*b.z - a.z*b.y, a.z*b.x - a.x*b.z, a.x*b.y - a.y*b.x} }
func dot(a, b vec3) float32 { return a.x*b.x + a.y*b.y + a.z*b.z }

// triTriIntersect is Möller's interval-overlap triangle intersection test
// (1997), the jmeint kernel. Coplanar pairs are counted as non-intersecting,
// as AxBench's variant does for its inputs.
func triTriIntersect(v0, v1, v2, u0, u1, u2 vec3) bool {
	// Plane of triangle 1: n1·x + d1 = 0.
	e1, e2 := sub(v1, v0), sub(v2, v0)
	n1 := cross(e1, e2)
	d1 := -dot(n1, v0)
	du0 := dot(n1, u0) + d1
	du1 := dot(n1, u1) + d1
	du2 := dot(n1, u2) + d1
	if (du0 > 0 && du1 > 0 && du2 > 0) || (du0 < 0 && du1 < 0 && du2 < 0) {
		return false
	}
	// Plane of triangle 2.
	e1, e2 = sub(u1, u0), sub(u2, u0)
	n2 := cross(e1, e2)
	d2 := -dot(n2, u0)
	dv0 := dot(n2, v0) + d2
	dv1 := dot(n2, v1) + d2
	dv2 := dot(n2, v2) + d2
	if (dv0 > 0 && dv1 > 0 && dv2 > 0) || (dv0 < 0 && dv1 < 0 && dv2 < 0) {
		return false
	}
	// Intersection line direction.
	dir := cross(n1, n2)
	if dir.x == 0 && dir.y == 0 && dir.z == 0 {
		return false // coplanar (or degenerate): treated as non-intersecting
	}
	// Project onto the dominant axis of dir.
	proj := func(v vec3) float32 {
		ax, ay, az := abs32(dir.x), abs32(dir.y), abs32(dir.z)
		switch {
		case ax >= ay && ax >= az:
			return v.x
		case ay >= az:
			return v.y
		default:
			return v.z
		}
	}
	t1lo, t1hi, ok1 := interval(proj(v0), proj(v1), proj(v2), dv0, dv1, dv2)
	t2lo, t2hi, ok2 := interval(proj(u0), proj(u1), proj(u2), du0, du1, du2)
	if !ok1 || !ok2 {
		return false
	}
	return t1lo <= t2hi && t2lo <= t1hi
}

func abs32(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}

// interval computes the parametric interval where the triangle crosses the
// intersection line, given projected vertices and signed plane distances.
func interval(p0, p1, p2, d0, d1, d2 float32) (lo, hi float32, ok bool) {
	// Order vertices so that v0 and v1 lie on one side, v2 on the other.
	switch {
	case d0*d1 > 0: // v2 alone
		return span(p2, p0, p1, d2, d0, d1)
	case d0*d2 > 0: // v1 alone
		return span(p1, p0, p2, d1, d0, d2)
	case d1*d2 > 0 || d0 != 0: // v0 alone
		return span(p0, p1, p2, d0, d1, d2)
	case d1 != 0:
		return span(p1, p0, p2, d1, d0, d2)
	case d2 != 0:
		return span(p2, p0, p1, d2, d0, d1)
	}
	return 0, 0, false // coplanar
}

// span returns the crossing interval for the lone vertex a against b, c.
func span(pa, pb, pc, da, db, dc float32) (lo, hi float32, ok bool) {
	t1 := pa + (pb-pa)*da/(da-db)
	t2 := pa + (pc-pa)*da/(da-dc)
	if t1 > t2 {
		t1, t2 = t2, t1
	}
	return t1, t2, true
}

// Run implements Workload.
func (w *jm) Run(ctx *Ctx) ([]float64, error) {
	// Six vertex arrays of n×3 floats: vertices 0..2 of triangles A and B.
	names := []string{"jm.a0", "jm.a1", "jm.a2", "jm.b0", "jm.b1", "jm.b2"}
	var regs [6]device.Region
	for i, name := range names {
		r, err := ctx.Dev.Malloc(name, w.n*3*4, true)
		if err != nil {
			return nil, err
		}
		regs[i] = r
	}
	out, err := ctx.Dev.Malloc("jm.out", w.n*4, false)
	if err != nil {
		return nil, err
	}

	// Triangle soup on a 1/1024 grid (mesh-extraction precision); triangle
	// B sits near A so a realistic fraction of pairs intersect.
	rng := newRNG(6006)
	host := make([][]float32, 6)
	for i := range host {
		host[i] = make([]float32, w.n*3)
	}
	const grid = 1.0 / 1024
	for p := 0; p < w.n; p++ {
		var cx, cy, cz float32
		for v := 0; v < 3; v++ {
			host[v][p*3+0] = rng.uniform(0, 1, grid)
			host[v][p*3+1] = rng.uniform(0, 1, grid)
			host[v][p*3+2] = rng.uniform(0, 1, grid)
			cx += host[v][p*3+0]
			cy += host[v][p*3+1]
			cz += host[v][p*3+2]
		}
		// Triangle B: random triangle around A's centroid.
		cx, cy, cz = cx/3, cy/3, cz/3
		for v := 3; v < 6; v++ {
			host[v][p*3+0] = cx + rng.uniform(-0.3, 0.3, grid)
			host[v][p*3+1] = cy + rng.uniform(-0.3, 0.3, grid)
			host[v][p*3+2] = cz + rng.uniform(-0.3, 0.3, grid)
		}
	}
	for i := range regs {
		if err := copyIn(ctx, regs[i], host[i]); err != nil {
			return nil, err
		}
	}

	var views [6]device.F32
	for i := range regs {
		views[i] = ctx.Dev.F32View(regs[i])
	}
	vo := ctx.Dev.F32View(out)
	at := func(a int, p int) vec3 {
		return vec3{views[a].At(p * 3), views[a].At(p*3 + 1), views[a].At(p*3 + 2)}
	}
	for p := 0; p < w.n; p++ {
		hit := triTriIntersect(at(0, p), at(1, p), at(2, p), at(3, p), at(4, p), at(5, p))
		if hit {
			vo.Set(p, 1)
		} else {
			vo.Set(p, 0)
		}
	}
	ctx.Sync(out)

	// Trace: stream the six vertex arrays; one boolean output block per
	// three input blocks (3 floats per vertex vs 1 output per pair).
	if ctx.Rec != nil {
		inBlocks := blocksForFloats(w.n * 3)
		ctx.Rec.BeginKernel("jmeint", warpsFor(inBlocks))
		for b := 0; b < inBlocks; b++ {
			wp := warpOf(b)
			for i := range regs {
				ctx.Rec.Access(wp, regs[i].Addr+uint64(b)*compress.BlockSize, false, 6)
			}
			if b%3 == 0 {
				ctx.Rec.Access(wp, out.Addr+uint64(b/3)*compress.BlockSize, true, 6)
			}
		}
	}
	return readOut(ctx, out, w.n)
}
