// Package repro's benchmark harness regenerates every table and figure of
// the paper's evaluation as testing.B benchmarks, reporting the headline
// numbers as custom metrics so `go test -bench` output doubles as a
// reproduction summary (`slcbench -all` renders the full report). They
// report simulated results; host speed (simulator events/s, codec and
// daemon throughput) is measured by the bench/ module, see bench/README.md.
//
//	go test -bench=Fig7 -benchtime=1x .
//	go test -bench=. -benchmem ./...
package repro

import (
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/experiments"
	"repro/internal/gpu/sim"
	"repro/internal/hw"
	"repro/internal/slc"
	"repro/internal/workloads"
)

// sharedRunner memoises runs across benchmarks, so Figure 8 reuses Figure
// 7's simulations exactly as the harness in internal/experiments does.
var (
	runnerOnce sync.Once
	runner     *experiments.Runner
)

func sharedR() *experiments.Runner {
	runnerOnce.Do(func() { runner = experiments.NewRunner() })
	return runner
}

// BenchmarkFig1CompressionRatios regenerates Figure 1: raw vs effective
// compression ratio of BDI, FPC, C-PACK and E2MC at 32 B MAG.
func BenchmarkFig1CompressionRatios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure1(sharedR(), compress.MAG32)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.GM.Raw["E2MC"], "E2MC-rawCR")
		b.ReportMetric(f.GM.Eff["E2MC"], "E2MC-effCR")
		b.ReportMetric(f.GapPct("E2MC"), "E2MC-gap%")
	}
}

// BenchmarkFig2Distribution regenerates Figure 2: the distribution of
// compressed blocks above multiples of MAG.
func BenchmarkFig2Distribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure2(sharedR(), compress.MAG32)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.FracAboveMultiple()*100, "recoverable%")
	}
}

// BenchmarkTable1Hardware regenerates Table I from the analytical 32 nm
// model.
func BenchmarkTable1Hardware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := hw.Model()
		b.ReportMetric(m.Comp.AreaMM2*1000, "comp-area-µm2/1000")
		b.ReportMetric(m.Comp.PowerMW, "comp-power-mW")
		b.ReportMetric(m.Comp.FreqGHz, "comp-freq-GHz")
	}
}

// BenchmarkFig7SpeedupError regenerates Figure 7: speedup and error of the
// three TSLC variants vs E2MC (paper GM: 1.090/1.098/1.097; GM error 0.99%).
func BenchmarkFig7SpeedupError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure7(sharedR())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.GMSpeedup[slc.SIMP], "GM-speedup-SIMP")
		b.ReportMetric(f.GMSpeedup[slc.PRED], "GM-speedup-PRED")
		b.ReportMetric(f.GMSpeedup[slc.OPT], "GM-speedup-OPT")
		b.ReportMetric(f.GMErrorPctOPT, "GM-error%-OPT")
	}
}

// BenchmarkFig8BandwidthEnergy regenerates Figure 8: normalised bandwidth,
// energy and EDP (paper GM: 0.86 / 0.917 / 0.825).
func BenchmarkFig8BandwidthEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure8(sharedR())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.GMBw[slc.OPT], "GM-bandwidth-OPT")
		b.ReportMetric(f.GMEnergy[slc.OPT], "GM-energy-OPT")
		b.ReportMetric(f.GMEDP[slc.OPT], "GM-EDP-OPT")
	}
}

// BenchmarkFig9MAGSensitivity regenerates Figure 9: TSLC-OPT across MAG
// 16/32/64 B (paper GM speedups: 1.05 / 1.097 / 1.09).
func BenchmarkFig9MAGSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure9(sharedR())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.GMSpeedup[compress.MAG16], "GM-speedup-16B")
		b.ReportMetric(f.GMSpeedup[compress.MAG32], "GM-speedup-32B")
		b.ReportMetric(f.GMSpeedup[compress.MAG64], "GM-speedup-64B")
	}
}

// BenchmarkSectionVCEffectiveCR regenerates the §V-C compression-ratio
// numbers (paper: raw 1.54; effective 1.41/1.31/1.16 at 16/32/64 B).
func BenchmarkSectionVCEffectiveCR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure9(sharedR())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.RawCRGM, "raw-CR")
		b.ReportMetric(f.EffCRGM[compress.MAG16], "eff-CR-16B")
		b.ReportMetric(f.EffCRGM[compress.MAG32], "eff-CR-32B")
		b.ReportMetric(f.EffCRGM[compress.MAG64], "eff-CR-64B")
	}
}

// BenchmarkAblationThreshold sweeps the lossy threshold on DCT — the design
// knob of §III-B (paper default 16 B).
func BenchmarkAblationThreshold(b *testing.B) {
	w, err := workloads.ByName("DCT")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r := sharedR()
		base, err := r.Run(w, experiments.E2MCConfig(compress.MAG32))
		if err != nil {
			b.Fatal(err)
		}
		for _, tb := range []int{8, 16, 32} {
			res, err := r.Run(w, experiments.TSLCConfig(slc.OPT, compress.MAG32, tb*8))
			if err != nil {
				b.Fatal(err)
			}
			name := map[int]string{8: "t8B", 16: "t16B", 32: "t32B"}[tb]
			b.ReportMetric(base.Sim.TimeNs/res.Sim.TimeNs, "speedup-"+name)
		}
	}
}

// BenchmarkAblationExtraNodes isolates TSLC-OPT's extra tree nodes (§III-F):
// how many symbols are approximated per lossy block with and without them.
func BenchmarkAblationExtraNodes(b *testing.B) {
	w, err := workloads.ByName("DCT")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r := sharedR()
		pred, err := r.Run(w, experiments.TSLCConfig(slc.PRED, compress.MAG32, 128))
		if err != nil {
			b.Fatal(err)
		}
		opt, err := r.Run(w, experiments.TSLCConfig(slc.OPT, compress.MAG32, 128))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pred.ErrorFrac*100, "error%-no-extra-nodes")
		b.ReportMetric(opt.ErrorFrac*100, "error%-with-extra-nodes")
	}
}

// BenchmarkAblationMDC shrinks the metadata cache to expose its role.
func BenchmarkAblationMDC(b *testing.B) {
	w, err := workloads.ByName("NN")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r := sharedR()
		cfg := experiments.TSLCConfig(slc.OPT, compress.MAG32, 128)
		full, err := experiments.RerunTiming(r, w, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		tiny, err := experiments.RerunTiming(r, w, cfg, func(c *sim.Config) {
			c.MC.MDCLines = 16
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tiny.TimeNs/full.TimeNs, "slowdown-16-line-MDC")
		b.ReportMetric(float64(tiny.MC.MDCMisses), "MDC-misses-tiny")
		b.ReportMetric(float64(full.MC.MDCMisses), "MDC-misses-default")
	}
}

// BenchmarkAblationPrediction compares the decode-side reconstruction
// policies on NN, where value prediction matters most (§III-E).
func BenchmarkAblationPrediction(b *testing.B) {
	w, err := workloads.ByName("NN")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r := sharedR()
		for _, v := range []slc.Variant{slc.SIMP, slc.PRED} {
			res, err := r.Run(w, experiments.TSLCConfig(v, compress.MAG32, 128))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.ErrorFrac*100, "error%-"+v.String())
		}
	}
}
