package mc

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/gpu/dram"
	"repro/internal/gpu/events"
)

// newSingle builds the subsystem on a single-lane engine, whose Run drains
// it; there is no cross-lane latency.
func newSingle(cfg Config) (*System, *events.Engine, error) {
	eng := events.NewEngine(1, 0)
	lanes := make([]*events.Lane, cfg.Channels())
	for i := range lanes {
		lanes[i] = eng.Lane(0)
	}
	s, err := New(cfg, eng.Lane(0), lanes, 0)
	if err != nil {
		return nil, nil, err
	}
	return s, eng, nil
}

// testSys is a single-lane System whose read completions land in log.
type testSys struct {
	*System
	eng *events.Engine
	log *completionLog
}

func newSys(t *testing.T) testSys {
	t.Helper()
	s, eng, err := newSingle(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return withLog(s, eng)
}

// withLog registers a completionLog for KindTest on s's coordinator lane.
func withLog(s *System, eng *events.Engine) testSys {
	log := &completionLog{}
	s.coord.SetHandler(events.KindTest, log)
	return testSys{s, eng, log}
}

// read requests a block read whose completion is logged with argument tag.
func (s testSys) read(addr uint64, bursts int, compressed bool, tag uint32) {
	s.ReadEvent(addr, bursts, compressed, events.Event{Kind: events.KindTest, Op: 7, A: tag})
}

// last returns the time of the latest logged completion.
func (s testSys) last() float64 { return s.log.times[len(s.log.times)-1] }

// readAt runs a single read to completion and returns its completion time.
func (s testSys) readAt(addr uint64, bursts int, compressed bool) float64 {
	s.read(addr, bursts, compressed, 0)
	s.eng.Run(1)
	return s.last()
}

func TestChannelCount(t *testing.T) {
	s := newSys(t)
	if s.Channels() != 12 {
		t.Errorf("channels = %d, want 12 (6 MCs × 2)", s.Channels())
	}
}

func TestRouteInterleaving(t *testing.T) {
	s := newSys(t)
	ch0, _ := s.route(0)
	ch1, _ := s.route(256)
	ch2, _ := s.route(512)
	if ch0 == ch1 || ch1 == ch2 {
		t.Errorf("adjacent 256B chunks map to same channel: %d %d %d", ch0, ch1, ch2)
	}
	chA, _ := s.route(300)
	chB, _ := s.route(400)
	if chA != chB {
		t.Errorf("same chunk split across channels %d and %d", chA, chB)
	}
}

func TestLocalAddrRowLocality(t *testing.T) {
	s := newSys(t)
	// Consecutive chunks on one channel (3072 B apart globally) must be
	// adjacent in the channel's local space.
	l0 := s.localAddr(0)
	l1 := s.localAddr(3072)
	if l1-l0 != 256 {
		t.Errorf("local stride = %d, want 256", l1-l0)
	}
}

func TestCompressedReadPaysDecompression(t *testing.T) {
	tPlain := newSys(t).readAt(4096, 4, false)
	tComp := newSys(t).readAt(4096, 4, true)
	if tComp <= tPlain {
		t.Errorf("compressed read (%v) not slower than raw (%v) despite MDC+decompression", tComp, tPlain)
	}
}

func TestFewerBurstsFinishSooner(t *testing.T) {
	// Open-loop streams to one channel: 1-burst traffic drains faster.
	s1 := newSys(t)
	s4 := newSys(t)
	for i := 0; i < 200; i++ {
		s1.read(0, 1, true, uint32(i))
		s4.read(0, 4, true, uint32(i))
	}
	s1.eng.Run(1)
	s4.eng.Run(1)
	if t1, t4 := s1.last(), s4.last(); t1 >= t4 {
		t.Errorf("1-burst stream (%v) not faster than 4-burst stream (%v)", t1, t4)
	}
}

func TestMDCMissFetchesMetadata(t *testing.T) {
	s := newSys(t)
	s.readAt(0, 4, true)
	st := s.Stats()
	if st.MDCMisses != 1 || st.MetaBursts != 1 {
		t.Errorf("first compressed read: stats %+v, want 1 MDC miss + 1 meta burst", st)
	}
	// The metadata fetch must be visible as a metadata burst on the DRAM
	// side too, split from data traffic.
	if ds := s.DramStats(); ds.MetaBursts != 1 || ds.Bursts != 4+1 {
		t.Errorf("dram stats %+v, want 4 data + 1 meta burst", ds)
	}
	// A second read in the same 16 KB metadata window AND on the same
	// controller hits. Channel interleaving is 256 B across 12 channels, so
	// addr 3072 returns to channel 0.
	s.readAt(3072, 4, true)
	st = s.Stats()
	if st.MDCHits != 1 {
		t.Errorf("second read should hit MDC: %+v", st)
	}
}

func TestUncompressedSkipsMDC(t *testing.T) {
	s := newSys(t)
	s.readAt(0, 4, false)
	s.WriteEvent(4096, 4, false)
	s.eng.Run(1)
	st := s.Stats()
	if st.MDCHits+st.MDCMisses != 0 {
		t.Errorf("raw accesses probed the MDC: %+v", st)
	}
	if st.Decompresses+st.Compresses != 0 {
		t.Errorf("raw accesses used the codec: %+v", st)
	}
}

func TestWriteCountsCompression(t *testing.T) {
	s := newSys(t)
	s.WriteEvent(0, 2, true)
	s.eng.Run(1)
	if st := s.Stats(); st.Compresses != 1 {
		t.Errorf("compressed write not counted: %+v", st)
	}
}

func TestDramStatsAggregation(t *testing.T) {
	s := newSys(t)
	totalBursts := 0
	for i := 0; i < 100; i++ {
		b := i%4 + 1
		totalBursts += b
		s.read(uint64(i)*256, b, false, uint32(i))
	}
	s.eng.Run(1)
	ds := s.DramStats()
	if ds.Bursts != totalBursts {
		t.Errorf("aggregated bursts %d ≠ issued %d", ds.Bursts, totalBursts)
	}
	if ds.MetaBursts != 0 {
		t.Errorf("uncompressed reads produced %d meta bursts", ds.MetaBursts)
	}
}

func TestPathLatencyDelaysCompletion(t *testing.T) {
	// The same read on a system with a non-zero memory path must complete
	// exactly 2×path later (one hop out, one hop back).
	const path = 50.0
	eng := events.NewEngine(2, path)
	lanes := make([]*events.Lane, DefaultConfig().Channels())
	for i := range lanes {
		lanes[i] = eng.Lane(1)
	}
	slow, err := New(DefaultConfig(), eng.Lane(0), lanes, path)
	if err != nil {
		t.Fatal(err)
	}
	tFast := newSys(t).readAt(4096, 4, false)
	tSlow := withLog(slow, eng).readAt(4096, 4, false)
	if got, want := tSlow-tFast, 2*path; math.Abs(got-want) > 1e-9 {
		t.Errorf("path latency added %g ns, want %g", got, want)
	}
}

func TestValidate(t *testing.T) {
	bad := DefaultConfig()
	bad.Controllers = 0
	if _, _, err := newSingle(bad); err == nil {
		t.Error("invalid config accepted")
	}
	eng := events.NewEngine(1, 0)
	if _, err := New(DefaultConfig(), nil, nil, 0); err == nil {
		t.Error("nil coordinator accepted")
	}
	if _, err := New(DefaultConfig(), eng.Lane(0), []*events.Lane{eng.Lane(0)}, 0); err == nil {
		t.Error("wrong lane count accepted")
	}
	if _, err := New(DefaultConfig(), eng.Lane(0), make([]*events.Lane, 12), -1); err == nil {
		t.Error("negative path latency accepted")
	}
}

// completionLog records typed completions dispatched on the coordinator:
// the (op, arg, time) stream a simulator front-end would consume.
type completionLog struct {
	ops   []uint8
	args  []uint32
	times []float64
}

func (c *completionLog) HandleEvent(now float64, ev events.Event) {
	c.ops = append(c.ops, ev.Op)
	c.args = append(c.args, ev.A)
	c.times = append(c.times, now)
}

// digest hashes the completion stream — (op, arg, time bits) per
// completion, in dispatch order — with FNV-1a.
func (c *completionLog) digest() uint64 {
	h := fnv.New64a()
	var buf [13]byte
	for i := range c.ops {
		buf[0] = c.ops[i]
		binary.LittleEndian.PutUint32(buf[1:5], c.args[i])
		binary.LittleEndian.PutUint64(buf[5:13], math.Float64bits(c.times[i]))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestAccessStreamMatchesFixture drives a mixed read/write, raw/compressed
// access stream through ReadEvent/WriteEvent and requires the controller
// and DRAM statistics and the completion stream — times included — to match
// the fixture. The fixture values were produced by the closure-wired memory
// path this package used to carry beside the event-driven one, with the
// two asserted identical while generating them.
func TestAccessStreamMatchesFixture(t *testing.T) {
	s := newSys(t)
	for i := 0; i < 400; i++ {
		addr := uint64(i*131) % 50000 * 128
		bursts, compressed := i%4+1, i%3 != 0
		if i%5 == 0 {
			s.WriteEvent(addr, bursts, compressed)
		} else {
			s.read(addr, bursts, compressed, uint32(i))
		}
	}
	s.eng.Run(1)

	wantMC := Stats{Reads: 320, Writes: 80, MDCHits: 0, MDCMisses: 266, MetaBursts: 266, Decompresses: 213, Compresses: 53}
	wantDram := dram.Stats{Requests: 666, Bursts: 1266, MetaBursts: 266, RowHits: 190, RowMisses: 476, Activations: 476, BusBusyNs: 2526.9461077844294}
	const wantCompletions, wantDigest = 320, 0x4bd54d5e42217694
	if got := s.Stats(); got != wantMC {
		t.Errorf("controller stats:\ngot  %+v\nwant %+v", got, wantMC)
	}
	if got := s.DramStats(); got != wantDram {
		t.Errorf("dram stats:\ngot  %+v\nwant %+v", got, wantDram)
	}
	if n := len(s.log.ops); n != wantCompletions {
		t.Errorf("%d completions, want %d", n, wantCompletions)
	}
	if d := s.log.digest(); d != wantDigest {
		t.Errorf("completion stream digest %#x, want %#x (order or times changed)", d, uint64(wantDigest))
	}
}

// TestSystemResetReplays drives a stream, resets, replays, and requires
// identical statistics — the reuse contract behind the alloc-free replay.
func TestSystemResetReplays(t *testing.T) {
	s := newSys(t)
	run := func() (Stats, [12]int) {
		for i := 0; i < 300; i++ {
			addr := uint64(i*257) % 40000 * 128
			if i%4 == 0 {
				s.WriteEvent(addr, i%3+1, i%2 == 0)
			} else {
				s.read(addr, i%4+1, i%2 == 0, uint32(i))
			}
		}
		s.eng.Run(1)
		var reqs [12]int
		for i, ch := range s.channels {
			reqs[i] = ch.Stats().Requests
		}
		return s.Stats(), reqs
	}
	first, firstReqs := run()
	s.Reset()
	s.eng.Reset()
	second, secondReqs := run()
	if first != second || firstReqs != secondReqs {
		t.Fatalf("replay after Reset diverged:\nfirst  %+v %v\nsecond %+v %v",
			first, firstReqs, second, secondReqs)
	}
	if first.Reads == 0 || first.Writes == 0 {
		t.Fatal("stream exercised no reads or writes")
	}
}
