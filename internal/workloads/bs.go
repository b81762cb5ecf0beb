package workloads

import (
	"math"

	"repro/internal/gpu/device"
	"repro/internal/metrics"
)

// bs is the CUDA SDK BlackScholes benchmark: European option pricing over a
// large batch of quantised market quotes. Four regions are annotated
// safe-to-approximate (stock price, strike, time-to-expiry, call output);
// the put output stays exact (Table III: #AR 4).
type bs struct {
	n int
}

// NewBS returns the BS workload (paper input: 4 M options; scaled to 512 K).
func NewBS() Workload { return &bs{n: 512 << 10} }

// Info implements Workload.
func (b *bs) Info() Info {
	return Info{
		Name:   "BS",
		Short:  "Options pricing",
		Input:  "512 K options",
		Metric: metrics.MRE,
		AR:     4,
	}
}

// cnd is the cumulative normal distribution approximation used by the CUDA
// SDK BlackScholes kernel (Abramowitz & Stegun polynomial), in float32.
func cnd(d float32) float32 {
	const (
		a1 = 0.31938153
		a2 = -0.356563782
		a3 = 1.781477937
		a4 = -1.821255978
		a5 = 1.330274429
	)
	k := float32(1.0 / (1.0 + 0.2316419*math.Abs(float64(d))))
	w := float32(1.0 - 1.0/math.Sqrt(2*math.Pi)*math.Exp(-float64(d)*float64(d)/2)*
		float64(k*(a1+k*(a2+k*(a3+k*(a4+k*a5))))))
	if d < 0 {
		return 1.0 - w
	}
	return w
}

// Run implements Workload.
func (b *bs) Run(ctx *Ctx) ([]float64, error) {
	const (
		riskFree   = 0.02
		volatility = 0.30
	)
	s, err := ctx.Dev.Malloc("bs.S", b.n*4, true)
	if err != nil {
		return nil, err
	}
	x, err := ctx.Dev.Malloc("bs.X", b.n*4, true)
	if err != nil {
		return nil, err
	}
	tm, err := ctx.Dev.Malloc("bs.T", b.n*4, true)
	if err != nil {
		return nil, err
	}
	call, err := ctx.Dev.Malloc("bs.Call", b.n*4, true)
	if err != nil {
		return nil, err
	}
	put, err := ctx.Dev.Malloc("bs.Put", b.n*4, false)
	if err != nil {
		return nil, err
	}

	// Real option batches arrive as chains: a run of contracts on one
	// underlying shares the spot price, strikes step through a ladder and
	// expiries cycle through the listed dates. Quotes are tick-quantised
	// (cents; quarter-year expiries) within the CUDA SDK's value ranges.
	rng := newRNG(1001)
	sv := make([]float32, b.n)
	xv := make([]float32, b.n)
	tv := make([]float32, b.n)
	const chain = 64
	for i := 0; i < b.n; i += chain {
		spot := rng.uniform(5, 30, 0.01)
		step := rng.uniform(0.5, 2.5, 0.25)
		for k := 0; k < chain && i+k < b.n; k++ {
			sv[i+k] = spot
			xv[i+k] = spot + float32(k%16-8)*step // ladder around the spot
			if xv[i+k] < 1 {
				xv[i+k] = 1
			}
			tv[i+k] = 0.25 + float32(k/16)*0.25 // listed expiries
		}
	}
	if err := copyIn(ctx, s, sv); err != nil {
		return nil, err
	}
	if err := copyIn(ctx, x, xv); err != nil {
		return nil, err
	}
	if err := copyIn(ctx, tm, tv); err != nil {
		return nil, err
	}

	// Kernel: one thread per option.
	vs, vx, vt := ctx.Dev.F32View(s), ctx.Dev.F32View(x), ctx.Dev.F32View(tm)
	vc, vp := ctx.Dev.F32View(call), ctx.Dev.F32View(put)
	for i := 0; i < b.n; i++ {
		si, xi, ti := vs.At(i), vx.At(i), vt.At(i)
		sqrtT := float32(math.Sqrt(float64(ti)))
		d1 := (float32(math.Log(float64(si/xi))) + (riskFree+0.5*volatility*volatility)*ti) /
			(volatility * sqrtT)
		d2 := d1 - volatility*sqrtT
		expRT := float32(math.Exp(float64(-riskFree * ti)))
		c := si*cnd(d1) - xi*expRT*cnd(d2)
		p := xi*expRT*cnd(-d2) - si*cnd(-d1)
		vc.Set(i, c)
		vp.Set(i, p)
	}
	ctx.Sync(call)
	ctx.Sync(put)

	emitStream(ctx, streamSpec{
		Name:    "BlackScholesGPU",
		Reads:   []device.Region{s, x, tm},
		Writes:  []device.Region{call, put},
		Blocks:  blocksForFloats(b.n),
		Compute: 4,
	})

	co, err := readOut(ctx, call, b.n)
	if err != nil {
		return nil, err
	}
	po, err := readOut(ctx, put, b.n)
	if err != nil {
		return nil, err
	}
	return append(co, po...), nil
}
