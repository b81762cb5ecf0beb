package workloads

import (
	"math"
	"slices"
	"testing"

	"repro/internal/compress"
	"repro/internal/gpu/device"
	"repro/internal/gpu/trace"
	"repro/internal/metrics"
)

// runGolden executes a workload with no compression and a trace recorder
// that reports raw blocks.
func runGolden(t *testing.T, w Workload) ([]float64, *trace.Trace) {
	t.Helper()
	dev := device.New()
	rec := trace.NewRecorder(func(uint64) (int, bool) { return 4, false })
	out, err := w.Run(NewCtx(dev, rec, nil))
	if err != nil {
		t.Fatalf("%s: %v", w.Info().Name, err)
	}
	return out, rec.Trace()
}

func TestRegistryMatchesTableIII(t *testing.T) {
	want := map[string]struct {
		metric metrics.Metric
		ar     int
	}{
		"JM":    {metrics.MissRate, 6},
		"BS":    {metrics.MRE, 4},
		"DCT":   {metrics.ImageDiff, 2},
		"FWT":   {metrics.NRMSE, 2},
		"TP":    {metrics.NRMSE, 2},
		"BP":    {metrics.MRE, 6},
		"NN":    {metrics.MRE, 2},
		"SRAD1": {metrics.ImageDiff, 8},
		"SRAD2": {metrics.ImageDiff, 6},
	}
	reg := Registry()
	if len(reg) != 9 {
		t.Fatalf("registry has %d workloads, want 9", len(reg))
	}
	for _, w := range reg {
		in := w.Info()
		exp, ok := want[in.Name]
		if !ok {
			t.Errorf("unexpected workload %q", in.Name)
			continue
		}
		if in.Metric != exp.metric || in.AR != exp.ar {
			t.Errorf("%s: metric %v / AR %d, want %v / %d",
				in.Name, in.Metric, in.AR, exp.metric, exp.ar)
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("NN"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("NOPE"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestAllWorkloadsRunAndEmitTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep in -short mode")
	}
	for _, w := range Registry() {
		w := w
		t.Run(w.Info().Name, func(t *testing.T) {
			out, tr := runGolden(t, w)
			if len(out) == 0 {
				t.Fatal("no outputs")
			}
			for i, v := range out {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("output %d is %v", i, v)
				}
			}
			st := tr.Stats(compress.MAG32)
			if st.Accesses == 0 || st.Kernels == 0 {
				t.Fatalf("empty trace: %+v", st)
			}
			if st.Writes == 0 {
				t.Error("trace has no writes; kernels must write their outputs")
			}
			// Every access must be block aligned and within the device
			// footprint... alignment is enforced by the recorder; check
			// burst sanity.
			for _, k := range tr.Kernels {
				for _, warp := range k.Warps {
					for _, a := range warp {
						if a.Bursts != 4 || a.Compressed {
							t.Fatalf("golden trace access %+v not raw", a)
						}
					}
				}
			}
		})
	}
}

func TestDeterministicOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("repeat run in -short mode")
	}
	w := NewNN()
	a, _ := runGolden(t, w)
	b, _ := runGolden(t, w)
	if len(a) != len(b) {
		t.Fatal("output lengths differ across runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestSharedInputsReadOnly covers the workloads whose synthetic inputs are
// built once per instance and shared by every run. Three runs go through one
// instance: a clean run, a run whose sync flips a mantissa bit of every
// synced float (the way a lossy codec rewrites the device image), and a
// second clean run. The two clean runs must give bitwise-equal outputs, and
// the shared input must still equal a fresh build by its generator.
func TestSharedInputsReadOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("repeat runs in -short mode")
	}
	tpW, dctW, fwtW := NewTP().(*tp), NewDCT().(*dct), NewFWT().(*fwt)
	srad1, srad2 := NewSRAD1().(*srad), NewSRAD2().(*srad)
	cases := []struct {
		w      Workload
		intact func() bool
	}{
		{tpW, func() bool { return slices.Equal(tpW.input(), smoothImage(1024, 1024, 3003)) }},
		{dctW, func() bool { return slices.Equal(dctW.input(), smoothImage(1024, 1024, 4004)) }},
		{fwtW, func() bool { return slices.Equal(fwtW.input(), quantizedSignal(256<<10, 1.0/256, 5005)) }},
		{srad1, func() bool { return slices.Equal(srad1.input(), smoothImage(512, 512, 8008)) }},
		{srad2, func() bool { return slices.Equal(srad2.input(), smoothImage(512, 512, 8008)) }},
	}
	for _, c := range cases {
		t.Run(c.w.Info().Name, func(t *testing.T) {
			first, _ := runGolden(t, c.w)
			dev := device.New()
			flip := func(r device.Region) {
				b, err := dev.Bytes(r.Addr, r.Size)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < len(b); i += 4 {
					b[i] ^= 1
				}
			}
			if _, err := c.w.Run(NewCtx(dev, nil, flip)); err != nil {
				t.Fatal(err)
			}
			second, _ := runGolden(t, c.w)
			if len(first) != len(second) {
				t.Fatalf("output lengths %d and %d", len(first), len(second))
			}
			for i := range first {
				if math.Float64bits(first[i]) != math.Float64bits(second[i]) {
					t.Fatalf("output %d differs across runs on one instance: %v vs %v", i, first[i], second[i])
				}
			}
			if !c.intact() {
				t.Error("the shared input differs from a fresh build after the runs")
			}
		})
	}
}

func TestApproxRegionCountsMatchDevice(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep in -short mode")
	}
	for _, w := range Registry() {
		w := w
		t.Run(w.Info().Name, func(t *testing.T) {
			dev := device.New()
			if _, err := w.Run(NewCtx(dev, nil, nil)); err != nil {
				t.Fatal(err)
			}
			got := 0
			for _, r := range dev.Regions() {
				if r.SafeToApprox {
					got++
				}
			}
			if got != w.Info().AR {
				t.Errorf("device has %d approximable regions, Table III says %d",
					got, w.Info().AR)
			}
		})
	}
}

func TestTriTriIntersect(t *testing.T) {
	// Two triangles crossing through each other.
	a0, a1, a2 := vec3{0, 0, 0}, vec3{2, 0, 0}, vec3{0, 2, 0}
	b0, b1, b2 := vec3{0.5, 0.5, -1}, vec3{0.5, 0.5, 1}, vec3{1.5, 0.5, 1}
	if !triTriIntersect(a0, a1, a2, b0, b1, b2) {
		t.Error("crossing triangles reported disjoint")
	}
	// Far apart.
	c0, c1, c2 := vec3{10, 10, 10}, vec3{11, 10, 10}, vec3{10, 11, 10}
	if triTriIntersect(a0, a1, a2, c0, c1, c2) {
		t.Error("distant triangles reported intersecting")
	}
	// Same plane, overlapping area (coplanar → false by convention).
	if triTriIntersect(a0, a1, a2, a0, a1, a2) {
		t.Error("coplanar identical triangles should report false (convention)")
	}
	// One fully on one side of the other's plane.
	d0, d1, d2 := vec3{0, 0, 1}, vec3{1, 0, 1}, vec3{0, 1, 1}
	if triTriIntersect(a0, a1, a2, d0, d1, d2) {
		t.Error("parallel offset triangles reported intersecting")
	}
}

// TestSmoothImageProperties checks the pixel values copyInImage writes for
// a smooth image: inside [0, 1] and quantised to 1/255.
func TestSmoothImageProperties(t *testing.T) {
	levels := smoothImage(64, 64, 1)
	if len(levels) != 64*64 {
		t.Fatalf("len = %d", len(levels))
	}
	dev := device.New()
	r, err := dev.Malloc("img", len(levels)*4, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := copyInImage(NewCtx(dev, nil, nil), r, levels, nil); err != nil {
		t.Fatal(err)
	}
	img, err := dev.ReadFloats32(r, len(levels))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range img {
		if v < 0 || v > 1 {
			t.Fatalf("pixel %d = %v outside [0,1]", i, v)
		}
		// Quantised to 1/255.
		q := float32(math.Round(float64(v)*255) / 255)
		if v != q {
			t.Fatalf("pixel %d = %v not quantised", i, v)
		}
	}
}

func TestClusteredCoordsQuantised(t *testing.T) {
	xs := clusteredCoords(100, 7)
	if len(xs) != 200 {
		t.Fatalf("len = %d", len(xs))
	}
	const q = 1.0 / 1024
	for i, v := range xs {
		r := float32(math.Round(float64(v)/q) * q)
		if v != r {
			t.Fatalf("coord %d = %v not on 1/1024 grid", i, v)
		}
	}
}

func TestEmitStreamShape(t *testing.T) {
	dev := device.New()
	a, _ := dev.Malloc("a", 64*compress.BlockSize, false)
	b, _ := dev.Malloc("b", 64*compress.BlockSize, false)
	rec := trace.NewRecorder(func(uint64) (int, bool) { return 4, false })
	ctx := NewCtx(dev, rec, nil)
	emitStream(ctx, streamSpec{Name: "k", Reads: []device.Region{a}, Writes: []device.Region{b}, Blocks: 64, Compute: 3})
	tr := rec.Trace()
	if len(tr.Kernels) != 1 {
		t.Fatal("kernel missing")
	}
	k := tr.Kernels[0]
	if len(k.Warps) != warpsFor(64) {
		t.Errorf("warps = %d, want %d", len(k.Warps), warpsFor(64))
	}
	st := tr.Stats(compress.MAG32)
	if st.Reads != 64 || st.Writes != 64 {
		t.Errorf("reads %d writes %d, want 64/64", st.Reads, st.Writes)
	}
	// Warp 0 must cover the first blocksPerWarp blocks of both regions.
	if got := len(k.Warps[0]); got != 2*blocksPerWarp {
		t.Errorf("warp 0 has %d accesses, want %d", got, 2*blocksPerWarp)
	}
}
