package sim

import (
	"testing"

	"repro/internal/gpu/trace"
)

// streamTrace builds a bandwidth-bound trace: warps stream distinct blocks
// with a small compute gap. Each warp covers a contiguous block run and
// warps are numbered in address order — the CTA-style decomposition real
// grid launches produce, which keeps the resident window coherent.
func streamTrace(warps, accessesPerWarp, bursts, compute int) *trace.Trace {
	k := trace.Kernel{Name: "stream", Warps: make([][]trace.Access, warps)}
	for w := 0; w < warps; w++ {
		for i := 0; i < accessesPerWarp; i++ {
			k.Warps[w] = append(k.Warps[w], trace.Access{
				Addr:       uint64(w*accessesPerWarp+i) * 128,
				Bursts:     uint8(bursts),
				Compressed: bursts < 4,
				Compute:    uint16(compute),
			})
		}
	}
	return &trace.Trace{Kernels: []trace.Kernel{k}}
}

func run(t *testing.T, tr *trace.Trace) Result {
	t.Helper()
	res, err := Run(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEmptyTrace(t *testing.T) {
	res := run(t, &trace.Trace{})
	if res.TimeNs != 0 || res.Accesses != 0 {
		t.Errorf("empty trace: %+v", res)
	}
}

func TestAllAccessesProcessed(t *testing.T) {
	tr := streamTrace(64, 50, 4, 10)
	res := run(t, tr)
	if res.Accesses != 64*50 {
		t.Errorf("processed %d accesses, want %d", res.Accesses, 64*50)
	}
	if res.TimeNs <= 0 {
		t.Error("time not positive")
	}
	if res.Warps != 64 {
		t.Errorf("warps = %d", res.Warps)
	}
}

func TestDeterminism(t *testing.T) {
	tr := streamTrace(128, 100, 3, 8)
	r1 := run(t, tr)
	r2 := run(t, tr)
	if r1 != r2 {
		t.Errorf("simulation not deterministic:\n%+v\n%+v", r1, r2)
	}
}

func TestFewerBurstsFaster(t *testing.T) {
	// Bandwidth-bound: enough warps and accesses to saturate channels.
	slow := run(t, streamTrace(512, 200, 4, 4))
	fast := run(t, streamTrace(512, 200, 2, 4))
	if fast.TimeNs >= slow.TimeNs {
		t.Errorf("2-burst trace (%.0f ns) not faster than 4-burst (%.0f ns)",
			fast.TimeNs, slow.TimeNs)
	}
	// Halving bursts must save meaningfully on a bandwidth-bound stream;
	// the gain sits below the 2× bus-time ratio because the lighter run
	// shifts partly into the latency-bound regime (MDC probes and
	// decompression latency stop being hidden).
	if sp := slow.TimeNs / fast.TimeNs; sp < 1.05 {
		t.Errorf("speedup from halved bursts = %.3f, want ≥ 1.05", sp)
	}
	faster := run(t, streamTrace(512, 200, 1, 4))
	if faster.TimeNs >= fast.TimeNs {
		t.Errorf("1-burst trace (%.0f ns) not faster than 2-burst (%.0f ns)",
			faster.TimeNs, fast.TimeNs)
	}
	if sp := slow.TimeNs / faster.TimeNs; sp < 1.2 {
		t.Errorf("speedup from quartered bursts = %.3f, want ≥ 1.2", sp)
	}
}

func TestBurstConservation(t *testing.T) {
	tr := streamTrace(64, 100, 3, 4)
	res := run(t, tr)
	// Every access misses (distinct blocks), reads only, no writebacks:
	// DRAM bursts = accesses × 3 + metadata bursts.
	want := 64*100*3 + res.MC.MetaBursts
	if res.DramBursts != want {
		t.Errorf("dram bursts = %d, want %d", res.DramBursts, want)
	}
	// Metadata fetches are split out: the controller's count and the DRAM
	// channels' count must agree, and DramBytes is data traffic only.
	if res.DramMetaBursts != res.MC.MetaBursts {
		t.Errorf("dram meta bursts = %d, MC counted %d", res.DramMetaBursts, res.MC.MetaBursts)
	}
	if res.DramBytes != (res.DramBursts-res.DramMetaBursts)*32 {
		t.Errorf("bytes = %d, want data bursts×32", res.DramBytes)
	}
}

func TestL2FiltersRepeats(t *testing.T) {
	// All warps hammer the same small set of blocks: after cold misses,
	// everything hits in L2 and DRAM traffic stays near zero.
	k := trace.Kernel{Name: "hot", Warps: make([][]trace.Access, 32)}
	for w := 0; w < 32; w++ {
		for i := 0; i < 100; i++ {
			k.Warps[w] = append(k.Warps[w], trace.Access{
				Addr:    uint64(i%16) * 128,
				Bursts:  4,
				Compute: 2,
			})
		}
	}
	res := run(t, &trace.Trace{Kernels: []trace.Kernel{k}})
	if res.L2.Misses > 16 {
		t.Errorf("L2 misses = %d, want ≤ 16 (working set)", res.L2.Misses)
	}
	// The hot set is absorbed by the cache hierarchy: L1 + L2 hits cover
	// everything but the cold fills.
	if hits := res.L1.Hits + res.L2.Hits; hits < 3000 {
		t.Errorf("L1+L2 hits = %d, want ≈ 3184", hits)
	}
}

func TestL1FiltersL2(t *testing.T) {
	// Each warp re-reads its own block several times: the per-SM L1 must
	// absorb the repeats, so the L2 sees roughly one access per block.
	k := trace.Kernel{Name: "reuse", Warps: make([][]trace.Access, 16)}
	for w := 0; w < 16; w++ {
		for rep := 0; rep < 10; rep++ {
			k.Warps[w] = append(k.Warps[w], trace.Access{
				Addr:    uint64(w) * 128,
				Bursts:  4,
				Compute: 2,
			})
		}
	}
	res := run(t, &trace.Trace{Kernels: []trace.Kernel{k}})
	if res.L1.Hits < 16*8 {
		t.Errorf("L1 hits = %d, want ≥ %d", res.L1.Hits, 16*8)
	}
	if total := res.L2.Hits + res.L2.Misses; total > 32 {
		t.Errorf("L2 saw %d accesses despite L1 filtering, want ≤ 32", total)
	}

	// With the L1 disabled, all repeats reach the L2.
	cfg := DefaultConfig()
	cfg.L1.SizeBytes = 0
	noL1, err := Run(&trace.Trace{Kernels: []trace.Kernel{k}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if total := noL1.L2.Hits + noL1.L2.Misses; total != 160 {
		t.Errorf("without L1, L2 saw %d accesses, want 160", total)
	}
}

func TestWriteInvalidatesL1(t *testing.T) {
	// read → write → read of one block: the second read must miss L1
	// (write-through invalidate) and hit L2.
	k := trace.Kernel{Name: "winv", Warps: [][]trace.Access{{
		{Addr: 0, Bursts: 4, Compute: 1},
		{Addr: 0, Write: true, Bursts: 4, Compute: 1},
		{Addr: 0, Bursts: 4, Compute: 1},
	}}}
	res := run(t, &trace.Trace{Kernels: []trace.Kernel{k}})
	if res.L1.Hits != 0 {
		t.Errorf("L1 hits = %d, want 0 (invalidated)", res.L1.Hits)
	}
	if res.L2.Hits != 2 {
		t.Errorf("L2 hits = %d, want 2 (write + re-read)", res.L2.Hits)
	}
}

func TestLatencyHiding(t *testing.T) {
	// One warp serialises memory latency; many warps overlap it. Per-warp
	// work is identical, so 64 warps should take much less than 64× the
	// one-warp time.
	one := run(t, streamTrace(1, 100, 4, 4))
	many := run(t, streamTrace(64, 100, 4, 4))
	if many.TimeNs > 20*one.TimeNs {
		t.Errorf("64 warps took %.0f ns vs %.0f ns for 1; latency hiding broken",
			many.TimeNs, one.TimeNs)
	}
}

func TestKernelBarrier(t *testing.T) {
	k1 := streamTrace(32, 50, 4, 4).Kernels[0]
	tr := &trace.Trace{Kernels: []trace.Kernel{k1, k1}}
	double := run(t, tr)
	single := run(t, &trace.Trace{Kernels: []trace.Kernel{k1}})
	// The second kernel re-hits L2 (same addresses), so it is faster, but
	// time must strictly grow.
	if double.TimeNs <= single.TimeNs {
		t.Errorf("two kernels (%.0f ns) not slower than one (%.0f ns)",
			double.TimeNs, single.TimeNs)
	}
}

func TestWritebacksCarryWriteBursts(t *testing.T) {
	// Write a large footprint (forcing dirty evictions), then check DRAM
	// write traffic uses the written burst counts.
	warps := 64
	blocks := 16384 // 2 MB footprint ≫ 768 KB L2
	k := trace.Kernel{Name: "wr", Warps: make([][]trace.Access, warps)}
	for w := 0; w < warps; w++ {
		for i := w; i < blocks; i += warps {
			k.Warps[w] = append(k.Warps[w], trace.Access{
				Addr:       uint64(i) * 128,
				Write:      true,
				Bursts:     2,
				Compressed: true,
				Compute:    1,
			})
		}
	}
	res := run(t, &trace.Trace{Kernels: []trace.Kernel{k}})
	if res.L2.Writebacks == 0 {
		t.Fatal("no writebacks despite 2 MB dirty footprint")
	}
	if res.MC.Writes != res.L2.Writebacks {
		t.Errorf("MC writes %d ≠ L2 writebacks %d", res.MC.Writes, res.L2.Writebacks)
	}
	// All writebacks are of 2-burst compressed blocks.
	wantBursts := res.L2.Writebacks*2 + res.MC.MetaBursts
	if res.DramBursts != wantBursts {
		t.Errorf("dram bursts = %d, want %d", res.DramBursts, wantBursts)
	}
}

func TestComputeBoundInsensitiveToBursts(t *testing.T) {
	// With huge compute gaps the kernel is compute-bound: burst count must
	// barely matter.
	heavy4 := run(t, streamTrace(256, 40, 4, 400))
	heavy1 := run(t, streamTrace(256, 40, 1, 400))
	ratio := heavy4.TimeNs / heavy1.TimeNs
	if ratio > 1.1 {
		t.Errorf("compute-bound trace sped up %.2f× from fewer bursts; should be ≈1", ratio)
	}
}

func TestInvalidConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SMs = 0
	if _, err := Run(&trace.Trace{}, cfg); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestL1FlushedBetweenKernels(t *testing.T) {
	// Kernel 2 re-reads kernel 1's block: the L1 is flushed at the kernel
	// boundary, so the re-read misses L1 but hits L2.
	k := trace.Kernel{Name: "k", Warps: [][]trace.Access{{
		{Addr: 0, Bursts: 4, Compute: 1},
		{Addr: 0, Bursts: 4, Compute: 1}, // L1 hit within the kernel
	}}}
	tr := &trace.Trace{Kernels: []trace.Kernel{k, k}}
	res := run(t, tr)
	if res.L1.Hits != 2 {
		t.Errorf("L1 hits = %d, want 2 (one per kernel)", res.L1.Hits)
	}
	if res.L2.Hits != 1 {
		t.Errorf("L2 hits = %d, want 1 (kernel 2's cold L1 miss)", res.L2.Hits)
	}
	if res.L2.Misses != 1 {
		t.Errorf("L2 misses = %d, want 1 (kernel 1's cold fill)", res.L2.Misses)
	}
}

// mixedTrace exercises every cross-lane interaction at once: streaming
// reads, L2 hits, compressed and uncompressed writes with dirty evictions,
// and a second kernel re-touching the first kernel's footprint.
func mixedTrace() *trace.Trace {
	k1 := trace.Kernel{Name: "mix", Warps: make([][]trace.Access, 96)}
	for w := 0; w < 96; w++ {
		for i := 0; i < 60; i++ {
			addr := uint64(w*60+i) * 128
			a := trace.Access{Addr: addr, Bursts: uint8(i%4 + 1), Compute: uint16(i % 7)}
			a.Compressed = a.Bursts < 4
			if i%5 == 0 {
				a.Write = true
			}
			if i%11 == 0 {
				a.Addr = uint64(w) * 128 // hot block: L1/L2 hits
			}
			k1.Warps[w] = append(k1.Warps[w], a)
		}
	}
	k2 := streamTrace(64, 40, 2, 3).Kernels[0]
	return &trace.Trace{Kernels: []trace.Kernel{k1, k2}}
}

// TestShardedMatchesSerial is the determinism bar of the sharded engine:
// the same trace replayed with 2, 4 and 12 workers must produce a Result
// bitwise-identical to the serial engine (Workers = 1). Run under -race in
// CI, this doubles as the data-race check on the lane partitioning.
func TestShardedMatchesSerial(t *testing.T) {
	traces := map[string]*trace.Trace{
		"stream":    streamTrace(128, 80, 3, 4),
		"bandwidth": streamTrace(512, 60, 4, 2),
		"mixed":     mixedTrace(),
	}
	for name, tr := range traces {
		cfg := DefaultConfig()
		cfg.Workers = 1
		want, err := Run(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 12} {
			cfg.Workers = workers
			got, err := Run(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s: %d workers diverge from serial:\nserial:  %+v\nsharded: %+v",
					name, workers, want, got)
			}
		}
	}
}

// TestLastWriteClearedBetweenKernels: kernel 1 writes a block with a
// 1-burst compressed geometry; kernel 2 streams a large read footprint that
// evicts it from the L2. The writeback must not replay kernel 1's stale
// geometry across the kernel barrier — it transfers as a full uncompressed
// block.
func TestLastWriteClearedBetweenKernels(t *testing.T) {
	const blocks = 2 * 6144 // 2× the 768 KB L2 (6144 lines of 128 B)
	k1 := trace.Kernel{Name: "write", Warps: [][]trace.Access{{
		{Addr: 0, Write: true, Bursts: 1, Compressed: true, Compute: 1},
	}}}
	k2 := trace.Kernel{Name: "evict", Warps: make([][]trace.Access, 64)}
	for w := 0; w < 64; w++ {
		for i := w; i < blocks; i += 64 {
			k2.Warps[w] = append(k2.Warps[w], trace.Access{
				Addr: uint64(1+i) * 128, Bursts: 4, Compute: 1,
			})
		}
	}
	res := run(t, &trace.Trace{Kernels: []trace.Kernel{k1, k2}})
	if res.L2.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1 (the stale dirty block)", res.L2.Writebacks)
	}
	// All of kernel 2's reads are uncompressed misses (4 bursts each); the
	// lone writeback must transfer MaxBursts = 4, not the stale 1.
	want := blocks*4 + 4
	if got := res.DramBursts - res.DramMetaBursts; got != want {
		t.Errorf("data bursts = %d, want %d (stale write geometry leaked across kernels?)", got, want)
	}
}

func benchTrace() *trace.Trace {
	return streamTrace(1024, 200, 4, 4)
}

func benchSim(b *testing.B, workers int) {
	tr := benchTrace()
	cfg := DefaultConfig()
	cfg.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimSerial and BenchmarkSimSharded12 compare the serial engine to
// twelve workers over the 13 lanes (coordinator + 12 channels) on a
// bandwidth-bound trace. BenchmarkSimSharded2 is the two-core shape a cell
// with SimWorkers = 2 replays at.
func BenchmarkSimSerial(b *testing.B)    { benchSim(b, 1) }
func BenchmarkSimSharded2(b *testing.B)  { benchSim(b, 2) }
func BenchmarkSimSharded4(b *testing.B)  { benchSim(b, 4) }
func BenchmarkSimSharded12(b *testing.B) { benchSim(b, 12) }

// TestTypedMatchesRef pins the typed Simulator to the closure-based
// reference engine (ref.go): both schedule the identical event sequence, so
// every trace must produce a bitwise-equal Result, serial and sharded. The
// events column pins the per-replay event count, which is deterministic and
// independent of the worker count: a change to it means the event stream
// itself changed.
func TestTypedMatchesRef(t *testing.T) {
	traces := []struct {
		name   string
		tr     *trace.Trace
		events int64
	}{
		{"stream", streamTrace(128, 80, 3, 4), 63148},
		{"mixed", mixedTrace(), 38450},
	}
	for _, tc := range traces {
		for _, workers := range []int{1, 4} {
			cfg := DefaultConfig()
			cfg.Workers = workers
			want, err := RunRef(tc.tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Replay(tc.tr)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s (workers %d): typed diverges from reference:\nref:   %+v\ntyped: %+v",
					tc.name, workers, want, got)
			}
			if n := s.Events(); n != tc.events {
				t.Errorf("%s (workers %d): %d events per replay, want %d (event stream changed)",
					tc.name, workers, n, tc.events)
			}
		}
	}
}

// TestStreamedMatchesReplay pins the streamed form (Start, Kernel per
// kernel, Finish) that overlaps the replay with the workload: fed kernel by
// kernel, on a simulator dirtied by an earlier replay, it must return
// Replay's Result bitwise and execute the same events per replay as
// TestTypedMatchesRef's column, serial and sharded. RunRecording, which
// streams the kernels to a replay goroutine when Workers > 1, must agree
// too.
func TestStreamedMatchesReplay(t *testing.T) {
	traces := []struct {
		name   string
		tr     *trace.Trace
		events int64
	}{
		{"stream", streamTrace(128, 80, 3, 4), 63148},
		{"mixed", mixedTrace(), 38450},
	}
	for _, tc := range traces {
		for _, workers := range []int{1, 2, 4} {
			cfg := DefaultConfig()
			cfg.Workers = workers
			want, err := Run(tc.tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Replay(streamTrace(16, 10, 2, 1)); err != nil {
				t.Fatal(err)
			}
			s.Start()
			for i := range tc.tr.Kernels {
				s.Kernel(&tc.tr.Kernels[i])
			}
			if got := s.Finish(); got != want {
				t.Errorf("%s (workers %d): streamed diverges from Replay:\nreplay:   %+v\nstreamed: %+v",
					tc.name, workers, want, got)
			}
			if n := s.Events(); n != tc.events {
				t.Errorf("%s (workers %d): %d events per streamed replay, want %d",
					tc.name, workers, n, tc.events)
			}
			// Record the trace's kernels as a workload would: each lands in
			// the recorder's trace and, once finished, in its Sink (set only
			// when the replay streams).
			rec := trace.NewRecorder(nil)
			got, err := RunRecording(rec, cfg, func() error {
				for i := range tc.tr.Kernels {
					rec.Trace().Kernels = append(rec.Trace().Kernels, tc.tr.Kernels[i])
					if rec.Sink != nil {
						rec.Sink(&tc.tr.Kernels[i])
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s (workers %d): RunRecording diverges from Replay:\nreplay:    %+v\nrecording: %+v",
					tc.name, workers, want, got)
			}
		}
	}
}

// TestSimSteadyStateAllocFree pins the tentpole property: once a warm-up
// replay has grown the event pools, queue arenas and DRAM arenas to the
// trace's high-water marks, a serial replay performs zero heap allocations.
func TestSimSteadyStateAllocFree(t *testing.T) {
	tr := mixedTrace()
	cfg := DefaultConfig()
	cfg.Workers = 1 // the parallel engine's worker goroutines allocate
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up replays grow every pool and arena to the trace's high-water
	// marks; several are needed because Go maps finish an in-progress grow
	// incrementally across later operations.
	want, err := s.Replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := s.Replay(tr); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, func() {
		got, err := s.Replay(tr)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("replay diverged:\nwarm: %+v\ngot:  %+v", want, got)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state replay allocates %.1f times per run, want 0", allocs)
	}
}
