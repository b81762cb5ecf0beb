package workloads

import "math"

// Deterministic input generators. Real GPU workloads rarely stream raw
// entropy: market data is quantised to ticks, images to intensity levels,
// coordinates to survey precision. Quantisation is what gives the 16-bit
// symbol distributions their skew — the property E2MC (and hence SLC)
// exploits. Each generator documents its quantisation step.

// xorshift64 is a small deterministic PRNG so workloads do not depend on
// math/rand ordering guarantees across Go versions.
type xorshift64 struct{ s uint64 }

func newRNG(seed uint64) *xorshift64 {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &xorshift64{s: seed}
}

func (r *xorshift64) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

// float01 returns a uniform value in [0, 1).
func (r *xorshift64) float01() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// uniform returns a value in [lo, hi) quantised to the given step.
func (r *xorshift64) uniform(lo, hi, step float64) float32 {
	v := lo + r.float01()*(hi-lo)
	if step > 0 {
		v = math.Round(v/step) * step
	}
	return float32(v)
}

// grayLevels is an image quantised to 256 intensity levels: pixel i has the
// value levels[i]/255 (copyInImage writes it to the device). At one byte a
// pixel, an image that every run of a workload shares is a quarter of its
// float32 size.
type grayLevels []uint8

// smoothImage synthesises a w×h image: a few broad Gaussian blobs over a
// gradient, quantised to 256 intensity levels in [0, 1] — the profile of the
// natural images the DCT/SRAD benchmarks process.
func smoothImage(w, h int, seed uint64) grayLevels {
	rng := newRNG(seed)
	type blob struct{ cx, cy, sigma, amp float64 }
	blobs := make([]blob, 6)
	for i := range blobs {
		blobs[i] = blob{
			cx:    rng.float01() * float64(w),
			cy:    rng.float01() * float64(h),
			sigma: (0.05 + 0.15*rng.float01()) * float64(w),
			amp:   0.3 + 0.7*rng.float01(),
		}
	}
	img := make(grayLevels, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 0.15 + 0.2*float64(x)/float64(w) + 0.1*float64(y)/float64(h)
			for _, b := range blobs {
				dx, dy := float64(x)-b.cx, float64(y)-b.cy
				v += b.amp * math.Exp(-(dx*dx+dy*dy)/(2*b.sigma*b.sigma))
			}
			if v > 1 {
				v = 1
			}
			img[y*w+x] = uint8(math.Round(v * 255))
		}
	}
	return img
}

// clusteredCoords generates n (lat, lng) pairs around a handful of hub
// locations, quantised to 1/1024 degree — the Rodinia NN record profile.
func clusteredCoords(n int, seed uint64) []float32 {
	rng := newRNG(seed)
	type hub struct{ lat, lng float64 }
	hubs := make([]hub, 8)
	for i := range hubs {
		hubs[i] = hub{lat: 25 + 25*rng.float01(), lng: -120 + 50*rng.float01()}
	}
	out := make([]float32, 2*n)
	const q = 1.0 / 1024
	for i := 0; i < n; i++ {
		h := hubs[rng.next()%uint64(len(hubs))]
		lat := h.lat + (rng.float01()-0.5)*2
		lng := h.lng + (rng.float01()-0.5)*2
		out[2*i] = float32(math.Round(lat/q) * q)
		out[2*i+1] = float32(math.Round(lng/q) * q)
	}
	return out
}

// quantizedSignal generates a smooth 1-D signal quantised to the given step,
// used by FWT.
func quantizedSignal(n int, step float64, seed uint64) []float32 {
	rng := newRNG(seed)
	out := make([]float32, n)
	phase1, phase2 := rng.float01()*2*math.Pi, rng.float01()*2*math.Pi
	for i := range out {
		t := float64(i) / float64(n)
		v := math.Sin(2*math.Pi*5*t+phase1) + 0.5*math.Sin(2*math.Pi*17*t+phase2)
		v += 0.1 * (rng.float01() - 0.5)
		out[i] = float32(math.Round(v/step) * step)
	}
	return out
}
