// Package sim is the trace-driven GPU timing simulator that substitutes for
// gpgpu-sim in this reproduction. It replays per-warp memory access traces
// through an event-driven model of the GTX580-class configuration of the
// paper's Table II: 16 SMs whose warps hide memory latency, a shared
// write-back L2, and 6 memory controllers driving 12 × 32-bit GDDR5
// channels (FR-FCFS scheduled) with compression integrated in the
// controllers.
//
// The model captures what the paper's effect depends on — burst traffic
// versus channel bandwidth, latency hiding limits, and (de)compression
// latencies — while abstracting intra-SM pipelines into per-access issue
// gaps carried by the trace.
//
// The simulator is sharded across event lanes: the SM/L2/controller
// front-end runs on a coordinator lane and every GDDR5 channel on its own
// lane, exchanging messages that always carry at least the memory-path
// latency. That latency is the engine's lookahead, so Config.Workers > 1
// replays the lanes concurrently inside conservative time windows with
// results bitwise-identical to the serial engine (Workers ≤ 1). With
// Workers > 1, RunRecording also overlaps the replay with the workload that
// records the trace, replaying each kernel as soon as it is finished.
//
// Warp progress is driven by small value Event records
// (opTryIssue/opIssue/opRespond) dispatched through the lanes' handler
// tables. Every event the model schedules, bar a DRAM channel's drain step,
// goes through an ordered events.Queue: each scheduling site feeds a stream
// whose times never decrease (issue attempts at now, L1- and L2-hit
// responses at a fixed latency, each SM's issue slots, the controllers'
// messages at the path latency, each channel's bus completions), so a lane's
// heap holds one entry per busy stream instead of one per pending event.
// TestQueueFallbacksZero pins that no queued event arrives out of order on
// the fixture traces. All model state — engine, caches, memory system, warp
// and SM arrays — is built once in New and reset in place by Replay (or by
// Start, for a replay streamed kernel by kernel). After a warm-up replay the
// steady-state loop performs zero heap allocations (pinned by
// TestSimSteadyStateAllocFree). Exact Results and per-replay event counts
// of fixed traces are pinned by committed fixtures
// (TestReplayMatchesFixtures).
package sim

import (
	"fmt"
	"sync/atomic"

	"repro/internal/compress"
	"repro/internal/gpu/cache"
	"repro/internal/gpu/events"
	"repro/internal/gpu/mc"
	"repro/internal/gpu/trace"
)

// Config is the simulator configuration (paper Table II).
type Config struct {
	SMs           int
	SMClockMHz    float64
	MaxWarpsPerSM int // 1536 threads / 32
	// MAG is the memory access granularity: bytes moved per DRAM burst.
	MAG compress.MAG
	// L1 is the per-SM cache (Table II: 16 KB/SM). It caches global loads
	// and is write-through: stores invalidate and go to the L2.
	L1 cache.Config
	// L1HitCycles is the SM-cycle latency of an L1 hit.
	L1HitCycles int
	L2          cache.Config
	// L2HitCycles is the SM-cycle round trip for an L2 hit.
	L2HitCycles int
	// MemPathCycles is the one-way SM-cycle cost between L2 and the memory
	// controllers (interconnect + queuing), paid on each side of a miss.
	// It is also the sharded engine's lookahead: the minimum latency of
	// every cross-lane message.
	MemPathCycles int
	// WarpMLP is the per-warp memory-level parallelism: how many loads a
	// warp keeps in flight before stalling (scoreboarded stall-on-use).
	WarpMLP int
	MC      mc.Config
	// Workers is the number of goroutines draining the event lanes: ≤ 1
	// selects the serial engine, larger values the sharded engine (and a
	// streamed RunRecording). Results are bitwise-identical either way.
	Workers int

	// Display-only fields of Table II (not modelled directly: the L1 is
	// absorbed into trace generation, registers and shared memory do not
	// affect a trace replay).
	L1PerSMKB      int
	MaxCTASize     int
	RegistersPerSM int
	SharedMemKB    int
}

// DefaultConfig returns the paper's baseline simulator configuration.
func DefaultConfig() Config {
	return Config{
		SMs:           16,
		SMClockMHz:    822,
		MaxWarpsPerSM: 48,
		MAG:           compress.MAG32,
		L1:            cache.Config{SizeBytes: 16 << 10, LineBytes: 128, Ways: 4},
		L1HitCycles:   30,
		L2:            cache.Config{SizeBytes: 768 << 10, LineBytes: 128, Ways: 16},
		L2HitCycles:   120,
		MemPathCycles: 60,
		WarpMLP:       8,
		MC:            mc.DefaultConfig(),

		L1PerSMKB:      16,
		MaxCTASize:     512,
		RegistersPerSM: 32 << 10,
		SharedMemKB:    48,
	}
}

// Result summarises one simulation.
type Result struct {
	TimeNs       float64
	SMCycles     float64
	Accesses     int
	Instructions int64
	L1           cache.Stats
	L2           cache.Stats
	MC           mc.Stats
	// DramBursts counts every burst command on the channels' data buses;
	// DramMetaBursts is the subset fetching compression metadata (MDC miss
	// fills). DramBytes is data traffic only: (DramBursts −
	// DramMetaBursts) × MAG.
	DramBursts     int
	DramMetaBursts int
	DramBytes      int
	RowHits        int
	RowMisses      int
	Activations    int
	BusBusyNs      float64
	Warps          int
}

// blockXfer is the write-back geometry of one block, recorded by its last
// store. Simulator.lastWrite holds one per block number (address /
// BlockSize); a slot counts only while its stamp equals the simulator's
// per-kernel generation, so any other stamp reads as "not written this
// kernel".
type blockXfer struct {
	gen        uint32
	bursts     uint8
	compressed bool
}

type warpState struct {
	accs        []trace.Access
	idx         int
	sm          int
	outstanding int
	stalled     bool
	done        bool
}

type smState struct {
	issueFreeNs float64
	// pending holds warp indices waiting for residency; pendHead advances
	// instead of re-slicing so the backing array is reusable across kernels
	// and replays.
	pending  []int32
	pendHead int
	resident int
}

// Simulator front-end opcodes (events.KindSim). ev.A is the warp index into
// the current kernel's warp array; opIssue's ev.B is the access index.
const (
	opTryIssue uint8 = iota + 1
	opIssue
	opRespond
)

// Simulator replays traces under one fixed configuration. It is the
// long-lived face of the simulation core: the engine, caches, memory system
// and warp arrays are built by New and reset in place by Replay, so a caller
// (the package's BenchmarkSim* benchmarks, for one) can replay the same trace
// repeatedly without allocating.
type Simulator struct {
	cfg       Config
	smCycleNs float64
	eng       *events.Engine
	// q is the coordinator lane: every SM, L1, L2 and warp-scheduling event
	// runs here, so all simulator state below is lane-local to it.
	q *events.Lane
	// The front-end's ordered queues on q, one per stream whose times never
	// decrease: opTryIssue at now, L1- and L2-hit responses at now plus a
	// fixed latency, and per SM opIssue at the end of its issue slot
	// (issueFreeNs never decreases).
	tryQ, l1HitQ, l2HitQ events.Queue
	issueQ               []events.Queue

	l1s       []*cache.Cache
	l2        *cache.Cache
	mem       *mc.System
	sms       []smState
	warps     []warpState
	lastWrite []blockXfer
	gen       uint32
	remaining int
	endNs     float64
	res       Result
	events    int64
}

// validate checks the front-end parameters (the cache and mc configurations
// validate themselves in their constructors).
func (c Config) validate() error {
	if c.SMs <= 0 || c.SMClockMHz <= 0 || c.MaxWarpsPerSM <= 0 || c.WarpMLP <= 0 {
		return fmt.Errorf("sim: bad SM configuration %+v", c)
	}
	if !c.MAG.Valid() {
		return fmt.Errorf("sim: invalid MAG %d", c.MAG)
	}
	if c.MemPathCycles < 0 {
		return fmt.Errorf("sim: negative MemPathCycles %d", c.MemPathCycles)
	}
	return nil
}

// New validates the configuration and builds a Simulator for it.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	l2, err := cache.New(cfg.L2)
	if err != nil {
		return nil, err
	}
	smCycleNs := 1e3 / cfg.SMClockMHz
	pathNs := float64(cfg.MemPathCycles) * smCycleNs
	// One lane for the coordinator plus one per GDDR5 channel; the memory
	// path is the minimum cross-lane latency and therefore the lookahead.
	nchan := cfg.MC.Channels()
	eng := events.NewEngine(1+nchan, pathNs)
	coord := eng.Lane(0)
	chanLanes := make([]*events.Lane, nchan)
	for i := range chanLanes {
		chanLanes[i] = eng.Lane(1 + i)
	}
	mem, err := mc.New(cfg.MC, coord, chanLanes, pathNs)
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:       cfg,
		smCycleNs: smCycleNs,
		eng:       eng,
		q:         coord,
		tryQ:      coord.NewQueue(),
		l1HitQ:    coord.NewQueue(),
		l2HitQ:    coord.NewQueue(),
		issueQ:    make([]events.Queue, cfg.SMs),
		l2:        l2,
		mem:       mem,
		sms:       make([]smState, cfg.SMs),
	}
	for i := range s.issueQ {
		s.issueQ[i] = coord.NewQueue()
	}
	coord.SetHandler(events.KindSim, s)
	if cfg.L1.SizeBytes > 0 {
		s.l1s = make([]*cache.Cache, cfg.SMs)
		for i := range s.l1s {
			if s.l1s[i], err = cache.New(cfg.L1); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// Events returns the number of discrete events the engine executed during
// the last Replay or streamed replay — the denominator of the ns/event
// throughput metric.
func (s *Simulator) Events() int64 { return s.events }

// Run replays a trace and returns timing and event counts.
func Run(tr *trace.Trace, cfg Config) (Result, error) {
	s, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	return s.Replay(tr)
}

// Replay replays one trace from a cold start and returns timing and event
// counts. Replaying the same trace twice yields bitwise-identical Results;
// after the first replay has grown the event pools and queue arenas to the
// trace's high-water marks, further replays do not touch the heap. Replay is
// the streamed form run over a finished trace: Start, Kernel per kernel in
// launch order, Finish.
func (s *Simulator) Replay(tr *trace.Trace) (Result, error) {
	s.Start()
	for i := range tr.Kernels {
		s.Kernel(&tr.Kernels[i])
	}
	return s.Finish(), nil
}

// kernelBacklog bounds how many finished kernels a streamed RunRecording
// buffers ahead of the simulator. Workloads launch a few dozen kernels at
// most, so the workload practically never waits on the simulator.
const kernelBacklog = 64

// RunRecording calls record — a workload filling rec — and replays the
// trace rec records under cfg, returning the replay's Result. With
// cfg.Workers > 1, a simulation given more than one core, the replay
// streams: a goroutine replays each kernel as rec finishes it (rec.Sink),
// overlapping the replay with the workload computing the next kernel.
// Otherwise the simulator is built and run on the calling goroutine once
// record returns, exactly as Run: a one-worker simulation may share the
// machine with other cells, and a second goroutine would only oversubscribe
// it. The simulator sees the same kernels in the same order either way, so
// the Result is bitwise-equal to Run's over rec.Trace().
func RunRecording(rec *trace.Recorder, cfg Config, record func() error) (Result, error) {
	if cfg.Workers <= 1 {
		if err := record(); err != nil {
			return Result{}, err
		}
		return Run(rec.Trace(), cfg)
	}
	s, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	return s.replayStreamed(rec, record)
}

// replayStreamed is RunRecording's streamed form. However record ends —
// returning, failing or panicking — the kernel stream is closed and the
// replay goroutine joined before replayStreamed returns, so it never leaks,
// and a panic on the replay goroutine (a model invariant such as a kernel
// draining with warps unfinished) is re-raised on the caller. If record
// fails, the kernels still queued are skipped.
func (s *Simulator) replayStreamed(rec *trace.Recorder, record func() error) (Result, error) {
	kernels := make(chan *trace.Kernel, kernelBacklog)
	var abandoned atomic.Bool
	replayed := make(chan any, 1)
	s.Start()
	go func() {
		defer func() {
			v := recover()
			for range kernels {
				// After a panic, keep the stream moving so record never
				// blocks on a full channel.
			}
			replayed <- v
		}()
		for k := range kernels {
			if !abandoned.Load() {
				s.Kernel(k)
			}
		}
	}()
	rec.Sink = func(k *trace.Kernel) { kernels <- k }
	defer func() { rec.Sink = nil }()

	var (
		err         error
		replayPanic any
	)
	func() {
		ok := false
		defer func() {
			abandoned.Store(!ok)
			close(kernels)
			replayPanic = <-replayed
		}()
		if err = record(); err == nil {
			rec.Close()
			ok = true
		}
	}()
	if replayPanic != nil {
		panic(replayPanic)
	}
	if err != nil {
		return Result{}, err
	}
	return s.Finish(), nil
}

// Start begins a streamed replay from a cold start, rewinding every
// component in place. Kernel then replays the trace's kernels one at a time
// as they become available — while the workload is still recording later
// ones — and Finish returns the Result, bitwise-equal to Replay's over the
// same kernels.
func (s *Simulator) Start() {
	s.eng.Reset()
	s.mem.Reset()
	s.l2.Reset()
	for _, l1 := range s.l1s {
		l1.Reset()
	}
	for i := range s.sms {
		s.sms[i] = smState{pending: s.sms[i].pending[:0]}
	}
	s.warps = s.warps[:0]
	s.nextKernel()
	s.remaining = 0
	s.endNs = 0
	s.res = Result{}
	s.events = 0
}

// Finish ends a streamed replay and returns its Result. Events then reports
// the replay's event count.
func (s *Simulator) Finish() Result {
	s.res.TimeNs = s.endNs
	s.res.SMCycles = s.endNs / s.smCycleNs
	for _, l1 := range s.l1s {
		cs := l1.Stats()
		s.res.L1.Hits += cs.Hits
		s.res.L1.Misses += cs.Misses
	}
	s.res.L2 = s.l2.Stats()
	s.res.MC = s.mem.Stats()
	ds := s.mem.DramStats()
	s.res.DramBursts = ds.Bursts
	s.res.DramMetaBursts = ds.MetaBursts
	s.res.DramBytes = (ds.Bursts - ds.MetaBursts) * int(s.cfg.MAG)
	s.res.RowHits = ds.RowHits
	s.res.RowMisses = ds.RowMisses
	s.res.Activations = ds.Activations
	s.res.BusBusyNs = ds.BusBusyNs
	s.events = s.eng.Executed()
	return s.res
}

// HandleEvent dispatches the front-end's events on the coordinator.
func (s *Simulator) HandleEvent(now float64, ev events.Event) {
	switch ev.Op {
	case opTryIssue:
		s.tryIssueNext(int32(ev.A), now)
	case opIssue:
		w := &s.warps[ev.A]
		s.issueAccess(int32(ev.A), w.accs[ev.B], now)
	case opRespond:
		s.respond(int32(ev.A), now)
	default:
		panic(fmt.Sprintf("sim: unknown event op %d", ev.Op))
	}
}

// Kernel replays the next kernel of a streamed replay (see Start): its warps
// start at the previous kernel's end, behind a barrier. It panics if the
// engine drains with warps unfinished, a model invariant.
func (s *Simulator) Kernel(k *trace.Kernel) {
	start := s.endNs
	// L1s are flushed at kernel boundaries, as on real GPUs.
	for i := range s.l1s {
		old := s.l1s[i].Stats()
		s.res.L1.Hits += old.Hits
		s.res.L1.Misses += old.Misses
		s.l1s[i].Reset()
	}
	// Write-back geometry is forgotten at kernel boundaries too: kernel
	// N+1's evictions of blocks last written by kernel N fall back to the
	// uncompressed MaxBursts transfer instead of replaying stale compressed
	// geometry across the barrier.
	s.nextKernel()
	s.warps = s.warps[:0]
	for i, accs := range k.Warps {
		if len(accs) == 0 {
			continue
		}
		s.warps = append(s.warps, warpState{accs: accs, sm: i % s.cfg.SMs})
	}
	s.remaining = len(s.warps)
	s.res.Warps += len(s.warps)
	if s.remaining == 0 {
		return
	}
	for i := range s.sms {
		s.sms[i].pending = s.sms[i].pending[:0]
		s.sms[i].pendHead = 0
		s.sms[i].resident = 0
		if s.sms[i].issueFreeNs < start {
			s.sms[i].issueFreeNs = start
		}
	}
	for wi := range s.warps {
		smv := &s.sms[s.warps[wi].sm]
		if smv.resident < s.cfg.MaxWarpsPerSM {
			smv.resident++
			s.q.AtQueue(s.tryQ, start, events.Event{Kind: events.KindSim, Op: opTryIssue, A: uint32(wi)})
		} else {
			smv.pending = append(smv.pending, int32(wi))
		}
	}
	s.eng.Run(s.cfg.Workers)
	if t := s.eng.Now(); t > s.endNs {
		s.endNs = t
	}
	if s.remaining != 0 {
		panic(fmt.Sprintf("sim: kernel %s drained with %d warps unfinished", k.Name, s.remaining))
	}
}

// nextKernel forgets every recorded write-back geometry by advancing the
// generation that lastWrite slots must carry to count. When the generation
// wraps, the slots are cleared, so a stamp from 1<<32 kernels ago can never
// match again.
func (s *Simulator) nextKernel() {
	s.gen++
	if s.gen == 0 {
		clear(s.lastWrite)
		s.gen = 1
	}
}

// writeback returns the geometry a dirty block's eviction transfers: its
// last store's in this kernel, else a full uncompressed block.
//
//slclint:allocfree
func (s *Simulator) writeback(addr uint64) (bursts int, compressed bool) {
	if b := addr / compress.BlockSize; b < uint64(len(s.lastWrite)) {
		if x := s.lastWrite[b]; x.gen == s.gen {
			return int(x.bursts), x.compressed
		}
	}
	return s.cfg.MAG.MaxBursts(), false
}

// recordWrite stores a block's write-back geometry for this kernel. Trace
// addresses are block-aligned, so the block number identifies the address.
func (s *Simulator) recordWrite(a trace.Access) {
	b := a.Addr / compress.BlockSize
	if b >= uint64(len(s.lastWrite)) {
		s.lastWrite = append(s.lastWrite, make([]blockXfer, b+1-uint64(len(s.lastWrite)))...)
	}
	s.lastWrite[b] = blockXfer{gen: s.gen, bursts: a.Bursts, compressed: a.Compressed}
}

// tryIssueNext advances a warp: it issues the next access's compute segment
// unless the warp's load window is full or its stream is exhausted.
func (s *Simulator) tryIssueNext(wi int32, t float64) {
	w := &s.warps[wi]
	if w.idx >= len(w.accs) {
		s.maybeFinish(wi, t)
		return
	}
	if w.outstanding >= s.cfg.WarpMLP {
		w.stalled = true
		return
	}
	ai := w.idx
	a := &w.accs[ai]
	w.idx++
	smv := &s.sms[w.sm]
	startIssue := t
	if smv.issueFreeNs > startIssue {
		startIssue = smv.issueFreeNs
	}
	// The compute gap consumes issue bandwidth: 1 instruction per SM cycle
	// aggregated across the SM's warps.
	endIssue := startIssue + float64(a.Compute)*s.smCycleNs
	smv.issueFreeNs = endIssue
	s.res.Instructions += int64(a.Compute)
	s.q.AtQueue(s.issueQ[w.sm], endIssue, events.Event{Kind: events.KindSim, Op: opIssue, A: uint32(wi), B: uint32(ai)})
}

// issueAccess performs the L1/L2/DRAM path of one access. Reads join the
// warp's load window (stall-on-use with WarpMLP outstanding loads); writes
// are posted and write through the L1. The memory controller pays the
// L2↔controller path latency on each cross-lane hop, so a DRAM read's
// response arrives pathNs + bus transfer (+ decompression) + pathNs later.
func (s *Simulator) issueAccess(wi int32, a trace.Access, now float64) {
	w := &s.warps[wi]
	s.res.Accesses++
	respondEv := events.Event{Kind: events.KindSim, Op: opRespond, A: uint32(wi)}
	tryEv := events.Event{Kind: events.KindSim, Op: opTryIssue, A: uint32(wi)}
	if s.l1s != nil {
		l1 := s.l1s[w.sm]
		if a.Write {
			l1.Invalidate(a.Addr)
		} else if r := l1.Access(a.Addr, false); r.Hit {
			w.outstanding++
			hitNs := float64(s.cfg.L1HitCycles) * s.smCycleNs
			s.q.AtQueue(s.l1HitQ, now+hitNs, respondEv)
			s.q.AtQueue(s.tryQ, now, tryEv)
			return
		}
	}
	res := s.l2.Access(a.Addr, a.Write)
	if res.HasWriteback {
		bursts, compressed := s.writeback(res.WritebackAddr)
		s.mem.WriteEvent(res.WritebackAddr, bursts, compressed)
	}
	if a.Write {
		// Record the block's compressed geometry for its eventual
		// writeback; stores are posted, the warp does not wait.
		s.recordWrite(a)
		s.q.AtQueue(s.tryQ, now, tryEv)
		return
	}
	w.outstanding++
	hitNs := float64(s.cfg.L2HitCycles) * s.smCycleNs
	if res.Hit {
		s.q.AtQueue(s.l2HitQ, now+hitNs, respondEv)
	} else {
		s.mem.ReadEvent(a.Addr, int(a.Bursts), a.Compressed, respondEv)
	}
	// Independent next instructions keep issuing behind the load.
	s.q.AtQueue(s.tryQ, now, tryEv)
}

// respond retires one outstanding load and unblocks the warp.
func (s *Simulator) respond(wi int32, now float64) {
	w := &s.warps[wi]
	w.outstanding--
	if w.stalled {
		w.stalled = false
		s.tryIssueNext(wi, now)
		return
	}
	s.maybeFinish(wi, now)
}

// maybeFinish retires the warp once its stream and load window are drained.
func (s *Simulator) maybeFinish(wi int32, t float64) {
	w := &s.warps[wi]
	if w.done || w.idx < len(w.accs) || w.outstanding > 0 {
		return
	}
	w.done = true
	smv := &s.sms[w.sm]
	smv.resident--
	if smv.pendHead < len(smv.pending) {
		next := smv.pending[smv.pendHead]
		smv.pendHead++
		smv.resident++
		s.tryIssueNext(next, t)
	}
	s.remaining--
}
