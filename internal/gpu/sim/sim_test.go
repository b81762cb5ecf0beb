package sim

import (
	"math"
	"testing"

	"repro/internal/compress"
	"repro/internal/gpu/cache"
	"repro/internal/gpu/mc"
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

// TestZeroMemPathRejected: the memory-path latency is the engine's
// lookahead, so New refuses zero with an error instead of building an engine
// whose windows would drain nothing.
func TestZeroMemPathRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemPathCycles = 0
	if _, err := New(cfg); err == nil {
		t.Error("MemPathCycles 0 accepted")
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

// TestShardedMatchesSerial is the determinism bar of the event engine: the
// same trace replayed with 2, 4 and 12 workers must produce a Result
// bitwise-identical to one worker (Workers = 1), whose results the replay
// fixtures pin. Run under -race in CI, this doubles as the data-race check
// on the lane partitioning.
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

// TestLastWriteGenerationWrap: write-back geometry is stamped with a
// per-kernel generation, and a wrap of that 32-bit generation must not
// bring a stale stamp back to life. A kernel writes a block with a 1-burst
// compressed geometry; the generation is then moved to the end of its
// range, empty kernels wrap it round to one below the write's stamp, and
// a last kernel evicts the block under the write's own stamp. Had the wrap
// not cleared the slots, that eviction would replay the stale 1-burst
// write-back.
func TestLastWriteGenerationWrap(t *testing.T) {
	const blocks = 2 * 6144 // 2× the 768 KB L2 (6144 lines of 128 B)
	write := trace.Kernel{Name: "write", Warps: [][]trace.Access{{
		{Addr: 0, Write: true, Bursts: 1, Compressed: true, Compute: 1},
	}}}
	evict := trace.Kernel{Name: "evict", Warps: make([][]trace.Access, 64)}
	for w := 0; w < 64; w++ {
		for i := w; i < blocks; i += 64 {
			evict.Warps[w] = append(evict.Warps[w], trace.Access{
				Addr: uint64(1+i) * 128, Bursts: 4, Compute: 1,
			})
		}
	}
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Kernel(&write)
	stamp := s.gen
	s.gen = math.MaxUint32
	for i := 0; i == 0 || s.gen+1 != stamp; i++ {
		if i > 4 {
			t.Fatalf("generation %d after %d kernels past the wrap, want %d", s.gen, i, stamp-1)
		}
		s.Kernel(&trace.Kernel{Name: "wrap"})
	}
	s.Kernel(&evict)
	if s.gen != stamp {
		t.Fatalf("evict kernel ran at generation %d, want the write's %d", s.gen, stamp)
	}
	res := s.Finish()
	if res.L2.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1 (the stale dirty block)", res.L2.Writebacks)
	}
	if got, want := res.DramBursts-res.DramMetaBursts, blocks*4+4; got != want {
		t.Errorf("data bursts = %d, want %d (stale write geometry survived the generation wrap?)", got, want)
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

// BenchmarkSimSerial and BenchmarkSimSharded12 compare one worker to
// twelve workers over the 13 lanes (coordinator + 12 channels) on a
// bandwidth-bound trace. BenchmarkSimSharded2 is the two-core shape a cell
// with SimWorkers = 2 replays at.
func BenchmarkSimSerial(b *testing.B)    { benchSim(b, 1) }
func BenchmarkSimSharded2(b *testing.B)  { benchSim(b, 2) }
func BenchmarkSimSharded4(b *testing.B)  { benchSim(b, 4) }
func BenchmarkSimSharded12(b *testing.B) { benchSim(b, 12) }

// withMAG sets the MAG the way the evaluation does: bus occupancy per
// burst scales with the MAG so aggregate peak bandwidth stays fixed.
func withMAG(m compress.MAG) func(*Config) {
	return func(c *Config) {
		c.MAG = m
		c.MC.Dram.BurstCycles = int(m) / 16
	}
}

// fixtures pins the exact Result and per-replay event count of fixed traces
// under fixed configurations. The values were produced by the closure-wired
// reference simulator that the event-driven Simulator replaced, with the two
// asserted bitwise-equal at 1 and 4 workers while generating them, so they
// carry the reference's behaviour now that its code is gone. The event
// count is deterministic and independent of the worker count: a change to
// it means the event stream itself changed. The fixtures also stand in for
// the engine that drained one event at a time in key order, which produced
// them too until the window engine took over every worker count.
var fixtures = []struct {
	name   string
	tr     *trace.Trace
	cfg    func(*Config) // applied to DefaultConfig; nil keeps it
	events int64
	want   Result
}{
	{"stream", streamTrace(128, 80, 3, 4), nil, 63148, Result{TimeNs: 8068.017250171296, SMCycles: 6631.910179640805, Accesses: 10240, Instructions: 40960, L1: cache.Stats{Hits: 0, Misses: 10240, Writebacks: 0}, L2: cache.Stats{Hits: 0, Misses: 10240, Writebacks: 0}, MC: mc.Stats{Reads: 10240, Writes: 0, MDCHits: 9760, MDCMisses: 480, MetaBursts: 480, Decompresses: 10240, Compresses: 0}, DramBursts: 31200, DramMetaBursts: 480, DramBytes: 983040, RowHits: 6405, RowMisses: 4315, Activations: 4315, BusBusyNs: 62275.44910179707, Warps: 128}},
	{"mixed", mixedTrace(), nil, 38450, Result{TimeNs: 4514.0813263983055, SMCycles: 3710.574850299407, Accesses: 8320, Instructions: 24384, L1: cache.Stats{Hits: 197, Misses: 6971, Writebacks: 0}, L2: cache.Stats{Hits: 2683, Misses: 5440, Writebacks: 0}, MC: mc.Stats{Reads: 4401, Writes: 0, MDCHits: 3092, MDCMisses: 270, MetaBursts: 270, Decompresses: 3362, Compresses: 0}, DramBursts: 11151, DramMetaBursts: 270, DramBytes: 348192, RowHits: 3124, RowMisses: 1547, Activations: 1547, BusBusyNs: 22257.48502994019, Warps: 160}},
	{"mixed/mag16", mixedTrace(), withMAG(compress.MAG16), 38372, Result{TimeNs: 2864.380727595908, SMCycles: 2354.5209580838364, Accesses: 8320, Instructions: 24384, L1: cache.Stats{Hits: 196, Misses: 6972, Writebacks: 0}, L2: cache.Stats{Hits: 2684, Misses: 5440, Writebacks: 0}, MC: mc.Stats{Reads: 4401, Writes: 0, MDCHits: 3092, MDCMisses: 270, MetaBursts: 270, Decompresses: 3362, Compresses: 0}, DramBursts: 11151, DramMetaBursts: 270, DramBytes: 174096, RowHits: 3046, RowMisses: 1625, Activations: 1625, BusBusyNs: 11128.742514970094, Warps: 160}},
	{"mixed/mag64", mixedTrace(), withMAG(compress.MAG64), 38371, Result{TimeNs: 6819.201014030334, SMCycles: 5605.383233532934, Accesses: 8320, Instructions: 24384, L1: cache.Stats{Hits: 190, Misses: 6978, Writebacks: 0}, L2: cache.Stats{Hits: 2690, Misses: 5440, Writebacks: 0}, MC: mc.Stats{Reads: 4401, Writes: 0, MDCHits: 3092, MDCMisses: 270, MetaBursts: 270, Decompresses: 3362, Compresses: 0}, DramBursts: 11151, DramMetaBursts: 270, DramBytes: 696384, RowHits: 3050, RowMisses: 1621, Activations: 1621, BusBusyNs: 44514.970059880376, Warps: 160}},
	{"mixed/noL1", mixedTrace(), func(c *Config) { c.L1.SizeBytes = 0 }, 38405, Result{TimeNs: 4333.449888544093, SMCycles: 3562.095808383244, Accesses: 8320, Instructions: 24384, L1: cache.Stats{Hits: 0, Misses: 0, Writebacks: 0}, L2: cache.Stats{Hits: 2880, Misses: 5440, Writebacks: 0}, MC: mc.Stats{Reads: 4401, Writes: 0, MDCHits: 3092, MDCMisses: 270, MetaBursts: 270, Decompresses: 3362, Compresses: 0}, DramBursts: 11151, DramMetaBursts: 270, DramBytes: 348192, RowHits: 3121, RowMisses: 1550, Activations: 1550, BusBusyNs: 22257.48502994019, Warps: 160}},
}

// fixtureConfig returns DefaultConfig modified by mod (when non-nil) at the
// given worker count.
func fixtureConfig(mod func(*Config), workers int) Config {
	cfg := DefaultConfig()
	if mod != nil {
		mod(&cfg)
	}
	cfg.Workers = workers
	return cfg
}

// TestReplayMatchesFixtures replays every fixture trace at one and at four
// workers and requires its Result and event count bitwise.
func TestReplayMatchesFixtures(t *testing.T) {
	for _, fx := range fixtures {
		for _, workers := range []int{1, 4} {
			s, err := New(fixtureConfig(fx.cfg, workers))
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Replay(fx.tr)
			if err != nil {
				t.Fatal(err)
			}
			if got != fx.want {
				t.Errorf("%s (workers %d): Result diverges from the fixture:\nwant: %+v\ngot:  %+v",
					fx.name, workers, fx.want, got)
			}
			if n := s.Events(); n != fx.events {
				t.Errorf("%s (workers %d): %d events per replay, want %d (event stream changed)",
					fx.name, workers, n, fx.events)
			}
		}
	}
}

// TestQueueFallbacksZero pins the routing of every scheduling site through
// an ordered queue whose stream is monotone: replaying the fixture traces,
// at one and at two workers, no queued event arrives below its queue's tail.
// A fallback does not change any Result, only the replay's speed, so a
// misrouted site fails here rather than going unnoticed as a slowdown.
func TestQueueFallbacksZero(t *testing.T) {
	for _, fx := range fixtures {
		for _, workers := range []int{1, 2} {
			s, err := New(fixtureConfig(fx.cfg, workers))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Replay(fx.tr); err != nil {
				t.Fatal(err)
			}
			if n := s.eng.Fallbacks(); n != 0 {
				t.Errorf("%s (workers %d): %d queued events fell back to the heap, want 0", fx.name, workers, n)
			}
		}
	}
}

// TestStreamedMatchesReplay pins the streamed form (Start, Kernel per
// kernel, Finish) that overlaps the replay with the workload: fed kernel by
// kernel, on a simulator dirtied by an earlier replay, it must return the
// fixture's Result bitwise and execute its events per replay, at one, two
// and four workers. RunRecording, which streams the kernels to a replay
// goroutine when Workers > 1, must agree too.
func TestStreamedMatchesReplay(t *testing.T) {
	for _, fx := range fixtures {
		for _, workers := range []int{1, 2, 4} {
			cfg := fixtureConfig(fx.cfg, workers)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Replay(streamTrace(16, 10, 2, 1)); err != nil {
				t.Fatal(err)
			}
			s.Start()
			for k := range fx.tr.Kernels {
				s.Kernel(&fx.tr.Kernels[k])
			}
			if got := s.Finish(); got != fx.want {
				t.Errorf("%s (workers %d): streamed diverges from the fixture:\nwant:     %+v\nstreamed: %+v",
					fx.name, workers, fx.want, got)
			}
			if n := s.Events(); n != fx.events {
				t.Errorf("%s (workers %d): %d events per streamed replay, want %d",
					fx.name, workers, n, fx.events)
			}
			// Record the trace's kernels as a workload would: each lands in
			// the recorder's trace and, once finished, in its Sink (set only
			// when the replay streams).
			rec := trace.NewRecorder(nil)
			got, err := RunRecording(rec, cfg, func() error {
				for k := range fx.tr.Kernels {
					rec.Trace().Kernels = append(rec.Trace().Kernels, fx.tr.Kernels[k])
					if rec.Sink != nil {
						rec.Sink(&fx.tr.Kernels[k])
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got != fx.want {
				t.Errorf("%s (workers %d): RunRecording diverges from the fixture:\nwant:      %+v\nrecording: %+v",
					fx.name, workers, fx.want, got)
			}
		}
	}
}

// TestSimSteadyStateAllocFree pins the tentpole property: once a warm-up
// replay has grown the event pools, queue arenas and DRAM arenas to the
// trace's high-water marks, a one-worker replay performs zero heap
// allocations.
func TestSimSteadyStateAllocFree(t *testing.T) {
	tr := mixedTrace()
	cfg := DefaultConfig()
	cfg.Workers = 1 // the parallel engine's worker goroutines allocate
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up replays grow every pool and arena to the trace's high-water
	// marks.
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
