package sim_test

import (
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/experiments"
	"repro/internal/gpu/device"
	"repro/internal/gpu/sim"
	"repro/internal/gpu/trace"
	"repro/internal/pipeline"
	"repro/internal/serving"
	"repro/internal/slc"
	"repro/internal/workloads"
)

// srad1Cell is the Figure-9 cell the recorded-trace benchmarks replay:
// SRAD1 under TSLC-OPT at 16 B MAG, with the Figure-9 threshold of half a
// burst. A recorded paper workload gives the event queues their real shape —
// several kernels, L2 hits, compressed reads and write-backs, and MDC
// misses — which the synthetic streamTrace of BenchmarkSimSerial lacks.
var srad1Cell = experiments.TSLCConfig(slc.OPT, compress.MAG16, compress.MAG16.Bits()/2)

// srad1Trace records the cell's trace once per test binary: training the
// entropy table and running the workload take seconds, replaying far less.
var srad1Trace = sync.OnceValues(func() (*trace.Trace, error) {
	w := workloads.NewSRAD1()
	var tables serving.TableCache
	lossless, lossy, err := tables.Codecs(w, srad1Cell.Codec, srad1Cell.MAG, srad1Cell.ThresholdBits, srad1Cell.ErrorBound)
	if err != nil {
		return nil, err
	}
	dev := device.New()
	pl, err := pipeline.New(dev, srad1Cell.MAG, lossless, lossy)
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder(pl.BurstsFor)
	if _, err := w.Run(workloads.NewCtx(dev, rec, pl.Sync)); err != nil {
		return nil, err
	}
	rec.Close()
	return rec.Trace(), nil
})

func benchSRAD1(b *testing.B, workers int) {
	tr, err := srad1Trace()
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.SimConfig(srad1Cell)
	cfg.Workers = workers
	s, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Replay(tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*s.Events()), "ns/event")
}

// BenchmarkSimSRAD1MAG16Serial and BenchmarkSimSRAD1MAG16Sharded2 replay the
// recorded SRAD1 trace on the serial engine and at two workers, the shape of
// a fig9-mag cell.
func BenchmarkSimSRAD1MAG16Serial(b *testing.B)   { benchSRAD1(b, 1) }
func BenchmarkSimSRAD1MAG16Sharded2(b *testing.B) { benchSRAD1(b, 2) }
