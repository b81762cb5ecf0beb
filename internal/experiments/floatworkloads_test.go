package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/gpu/device"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// The float-workloads subset is the acceptance surface for the sz family:
// on the smooth HPC field at the default bound (1e-3) every sz cell must
// beat every lossless comparator on raw compression ratio, and every value
// a bounded pipeline writes back must be within the bound. These tests pin
// both ends.

// floatCompCells resolves the float-workloads subset's compression cells.
func floatCompCells(t *testing.T) []Cell {
	t.Helper()
	_, comp, err := MatrixCells("float-workloads")
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) == 0 {
		t.Fatal("float-workloads subset has no compression cells")
	}
	return comp
}

func TestFloatWorkloadsMatrixShape(t *testing.T) {
	full, comp, err := MatrixCells("float-workloads")
	if err != nil {
		t.Fatal(err)
	}
	// Three float fields × (2 bounded + 3 lossless comparators), plus the
	// HPC-S bound sweep at 1e-2 and 1e-4.
	if want := 3*(len(BoundedCodecNames)+len(FloatComparatorNames)) + 2; len(comp) != want {
		t.Errorf("comp cells = %d, want %d", len(comp), want)
	}
	if len(full) != 1 || full[0].Workload.Info().Name != "HPC-S" {
		t.Errorf("full cells = %+v, want one timed HPC-S cell", full)
	}
	for _, c := range comp {
		info, ok := compress.Lookup(c.Config.Codec)
		if !ok {
			t.Fatalf("cell %s × %s: unknown codec", c.Workload.Info().Name, c.Config.Name)
		}
		if info.LossyBounded && c.Config.ErrorBound <= 0 {
			t.Errorf("bounded cell %s has no error bound", c.Config.Name)
		}
		if !info.LossyBounded && c.Config.ErrorBound != 0 {
			t.Errorf("lossless cell %s carries an error bound", c.Config.Name)
		}
	}
}

// TestSZBeatsLosslessOnSmoothField is the ISSUE acceptance criterion: at a
// bound of 1e-3 (the default) on the smooth HPC field, the worst sz raw
// compression ratio exceeds the best lossless one.
func TestSZBeatsLosslessOnSmoothField(t *testing.T) {
	if testing.Short() {
		t.Skip("float-workloads matrix run in -short mode")
	}
	r := NewRunner()
	minSZ, maxLossless := math.Inf(1), math.Inf(-1)
	var szName, losslessName string
	for _, c := range floatCompCells(t) {
		if c.Workload.Info().Name != "HPC-S" {
			continue
		}
		info, _ := compress.Lookup(c.Config.Codec)
		if info.LossyBounded && c.Config.ErrorBound < DefaultErrorBound {
			continue // the 1e-4 sweep point is below the criterion's bound
		}
		st, err := r.CompressionOnly(c.Workload, c.Config)
		if err != nil {
			t.Fatalf("%s: %v", c.Config.Name, err)
		}
		ratio := st.RawRatio()
		t.Logf("%-28s raw CR %.3f", c.Config.Name, ratio)
		if info.LossyBounded {
			if ratio < minSZ {
				minSZ, szName = ratio, c.Config.Name
			}
		} else if ratio > maxLossless {
			maxLossless, losslessName = ratio, c.Config.Name
		}
	}
	if math.IsInf(minSZ, 1) || math.IsInf(maxLossless, -1) {
		t.Fatal("float-workloads subset is missing sz or lossless HPC-S cells")
	}
	if minSZ <= maxLossless {
		t.Errorf("worst sz cell %s (CR %.3f) does not beat best lossless cell %s (CR %.3f)",
			szName, minSZ, losslessName, maxLossless)
	}
}

// TestBoundedPipelineCompliance pushes a smooth float field through a full
// sz pipeline (lossless base + bounded lossy codec, as the runner builds it)
// and checks the value the device holds after Sync against the bound, for
// every element. Non-finite passthrough must be bit-exact.
func TestBoundedPipelineCompliance(t *testing.T) {
	const bound = 1e-3
	for _, codec := range BoundedCodecNames {
		t.Run(codec, func(t *testing.T) {
			ctx := compress.BuildContext{MAG: compress.MAG32, ErrorBound: bound}
			info, ok := compress.Lookup(codec)
			if !ok || !info.LossyBounded {
				t.Fatalf("codec %q is not a registered bounded codec", codec)
			}
			lossy, err := compress.Build(codec, ctx)
			if err != nil {
				t.Fatal(err)
			}
			lossless, err := compress.Build(info.Base, ctx)
			if err != nil {
				t.Fatal(err)
			}
			dev := device.New()
			pl, err := pipeline.New(dev, compress.MAG32, lossless, lossy)
			if err != nil {
				t.Fatal(err)
			}
			const n = 1 << 14
			reg, err := dev.Malloc("field", n*4, true)
			if err != nil {
				t.Fatal(err)
			}
			orig := workloads.SmoothField(n, 4242)
			orig[7] = float32(math.NaN())
			orig[100] = float32(math.Inf(1))
			if err := dev.CopyFloats32(reg, orig); err != nil {
				t.Fatal(err)
			}
			pl.Sync(reg)
			got, err := dev.ReadFloats32(reg, n)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				o, g := orig[i], got[i]
				exact := math.Float32bits(o) == math.Float32bits(g)
				if math.IsNaN(float64(o)) || math.IsInf(float64(o), 0) {
					if !exact {
						t.Fatalf("lane %d: non-finite %x not bit-exact (got %x)",
							i, math.Float32bits(o), math.Float32bits(g))
					}
					continue
				}
				if diff := math.Abs(float64(g) - float64(o)); diff > bound {
					t.Fatalf("lane %d: |%g − %g| = %g exceeds bound %g", i, g, o, diff, bound)
				}
			}
			if st := pl.Stats(); st.Blocks == 0 {
				t.Error("pipeline recorded no blocks")
			}
		})
	}
}

// TestFloatWorkloadsConfigNames pins the cell-name scheme the trajectory
// JSON exposes, so downstream tooling can rely on it.
func TestFloatWorkloadsConfigNames(t *testing.T) {
	for _, c := range floatCompCells(t) {
		name := c.Config.Name
		info, _ := compress.Lookup(c.Config.Codec)
		if info.LossyBounded {
			if !strings.Contains(name, "/eb1e-") {
				t.Errorf("bounded cell name %q lacks an /eb bound suffix", name)
			}
		} else if strings.Contains(name, "/eb") {
			t.Errorf("lossless cell name %q carries an /eb bound suffix", name)
		}
	}
}
