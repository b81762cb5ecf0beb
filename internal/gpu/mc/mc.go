// Package mc models the memory controllers of the SLC system (paper Figure
// 3): each controller integrates the compressor, decompressor and a metadata
// cache (MDC) holding the 2-bit burst count per block, so that only the
// required bursts are fetched for a compressed block. The GTX580
// configuration has 6 controllers, each driving two 32-bit GDDR5 channels
// (384-bit aggregate bus, 192.4 GB/s).
//
// The System runs on the sharded event engine: the controller front-end
// (routing and the MDC probes, which two channels of a controller share)
// executes on the coordinator lane, while each GDDR5 channel drains on its
// own lane. The two are decoupled by the memory-path latency, which is
// exactly the cross-lane message latency — the lookahead that lets the
// engine run channel lanes concurrently while replaying bitwise-identically
// to the serial engine. Per-channel statistics accumulate in lane-local
// shards and are merged only after the engine has drained.
package mc

import (
	"fmt"

	"repro/internal/compress"
	"repro/internal/gpu/dram"
	"repro/internal/gpu/events"
)

// Config describes the memory-controller subsystem.
type Config struct {
	Controllers   int // 6 on GTX580
	ChannelsPerMC int // 2 × 32-bit per 64-bit controller
	Dram          dram.Config
	// InterleaveBytes is the address-interleaving granularity across
	// channels.
	InterleaveBytes int
	// MDCLines is the number of metadata lines each controller caches; one
	// 32-byte line holds the 2-bit burst codes of 128 blocks (16 KB of
	// data). A miss costs one extra burst fetch. MDCWays sets the
	// associativity.
	MDCLines int
	MDCWays  int
	// DecompressCycles is added to every compressed read response and
	// CompressCycles to every compressed write (memory clock cycles).
	DecompressCycles int
	CompressCycles   int
}

// DefaultConfig returns the paper's configuration with E2MC latencies.
func DefaultConfig() Config {
	return Config{
		Controllers:      6,
		ChannelsPerMC:    2,
		Dram:             dram.DefaultConfig(),
		InterleaveBytes:  256,
		MDCLines:         4096, // 16 KB of metadata per MC, covering 64 MB
		MDCWays:          8,
		DecompressCycles: 20,
		CompressCycles:   46,
	}
}

// Validate checks the parameters.
func (c Config) Validate() error {
	if c.Controllers <= 0 || c.ChannelsPerMC <= 0 || c.InterleaveBytes <= 0 {
		return fmt.Errorf("mc: non-positive parameter in %+v", c)
	}
	return c.Dram.Validate()
}

// Channels returns the configured channel count.
func (c Config) Channels() int { return c.Controllers * c.ChannelsPerMC }

// Stats counts controller events.
type Stats struct {
	Reads        int
	Writes       int
	MDCHits      int
	MDCMisses    int
	MetaBursts   int // extra bursts spent fetching metadata
	Decompresses int
	Compresses   int
}

// metaLine covers the 2-bit entries of 128 consecutive blocks.
const blocksPerMetaLine = 128

// mdcCache is a small set-associative LRU metadata cache per controller.
type mdcCache struct {
	ways  int
	sets  [][]mdcEntry
	clock uint64
}

type mdcEntry struct {
	tag   uint64
	valid bool
	used  uint64
}

func newMDC(lines, ways int) *mdcCache {
	if ways < 1 {
		ways = 1
	}
	nsets := lines / ways
	if nsets < 1 {
		nsets = 1
	}
	sets := make([][]mdcEntry, nsets)
	for i := range sets {
		sets[i] = make([]mdcEntry, ways)
	}
	return &mdcCache{ways: ways, sets: sets}
}

// reset invalidates every line, keeping the set arrays.
func (m *mdcCache) reset() {
	m.clock = 0
	for _, set := range m.sets {
		for i := range set {
			set[i] = mdcEntry{}
		}
	}
}

// lookup returns true on hit and installs the line on miss.
func (m *mdcCache) lookup(metaLine uint64) bool {
	m.clock++
	set := m.sets[metaLine%uint64(len(m.sets))]
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == metaLine {
			set[i].used = m.clock
			return true
		}
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].used < set[victim].used {
			victim = i
		}
	}
	set[victim] = mdcEntry{tag: metaLine, valid: true, used: m.clock}
	return false
}

// System is the full memory-controller subsystem on the sharded engine.
// ReadEvent and WriteEvent must be called from events on the coordinator
// lane (or before the engine runs); read completions are delivered back onto
// the coordinator lane.
type System struct {
	cfg      Config
	coord    *events.Lane
	lanes    []*events.Lane // one per channel; entries may alias
	queues   []chanQueues   // one per channel
	channels []*dram.Channel
	mdcs     []*mdcCache
	cycleNs  float64
	pathNs   float64
	// front holds the counters touched on the coordinator lane; laneStats
	// holds the per-channel counters touched on that channel's lane.
	front     Stats
	laneStats []Stats
	// metaBase is a fictitious address range for metadata fetches, placed
	// beyond the data space so metadata rows do not alias data rows.
	metaBase uint64
}

// chanQueues are the ordered event queues of one channel's traffic. Each
// carries one stream whose times never decrease: a fixed latency added to
// the Now of the single lane that schedules it.
type chanQueues struct {
	// On the channel's lane: the coordinator's messages at now+path (opRead,
	// opWriteData, opWriteMeta), its compressed writes at
	// now+path+compress, and the writes a metadata fetch released at
	// now+compress (opWriteAfterMeta).
	in, inCompress, afterMeta events.Queue
	// On the coordinator: read completions at now+path, and those paying the
	// decompression latency at now+decompress+path.
	resp, respDecomp events.Queue
}

// New builds the subsystem with the front-end on coord and channel i's DRAM
// state on chanLanes[i] (len must equal cfg.Channels(); lanes may alias,
// e.g. all equal to coord for a single-lane setup). pathNs is the one-way
// latency between the L2/front-end and the channels, paid by every
// cross-lane message; it must be at least the owning engine's lookahead.
// The System registers itself as the handler for KindMC and KindDram on
// every lane it touches, so those kinds are reserved for it there.
func New(cfg Config, coord *events.Lane, chanLanes []*events.Lane, pathNs float64) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if coord == nil {
		return nil, fmt.Errorf("mc: nil coordinator lane")
	}
	if len(chanLanes) != cfg.Channels() {
		return nil, fmt.Errorf("mc: %d channel lanes for %d channels", len(chanLanes), cfg.Channels())
	}
	if pathNs < 0 {
		return nil, fmt.Errorf("mc: negative path latency %g", pathNs)
	}
	s := &System{
		cfg:       cfg,
		coord:     coord,
		lanes:     chanLanes,
		queues:    make([]chanQueues, cfg.Channels()),
		channels:  make([]*dram.Channel, cfg.Channels()),
		mdcs:      make([]*mdcCache, cfg.Controllers),
		cycleNs:   cfg.Dram.CycleNs(),
		pathNs:    pathNs,
		laneStats: make([]Stats, cfg.Channels()),
		metaBase:  1 << 40,
	}
	coord.SetHandler(events.KindMC, s)
	for i := range s.channels {
		lane := chanLanes[i]
		if lane == nil {
			return nil, fmt.Errorf("mc: nil lane for channel %d", i)
		}
		// Entries may alias; SetHandler is idempotent.
		lane.SetHandler(events.KindMC, s)
		lane.SetHandler(events.KindDram, s)
		ch, err := dram.NewChannel(cfg.Dram, lane, events.Event{Kind: events.KindDram, Op: opDrain, B: uint32(i)})
		if err != nil {
			return nil, err
		}
		s.channels[i] = ch
		s.queues[i] = chanQueues{
			in:         lane.NewQueue(),
			inCompress: lane.NewQueue(),
			afterMeta:  lane.NewQueue(),
			resp:       coord.NewQueue(),
			respDecomp: coord.NewQueue(),
		}
	}
	for i := range s.mdcs {
		s.mdcs[i] = newMDC(cfg.MDCLines, cfg.MDCWays)
	}
	return s, nil
}

// Channels returns the number of channels.
func (s *System) Channels() int { return len(s.channels) }

// route maps an address to its channel and controller.
func (s *System) route(addr uint64) (ch, ctrl int) {
	ch = int((addr / uint64(s.cfg.InterleaveBytes)) % uint64(len(s.channels)))
	return ch, ch / s.cfg.ChannelsPerMC
}

// localAddr converts a global address into the channel's own address space:
// the channel stores every len(channels)-th interleave chunk contiguously,
// so its 2 KB rows hold 2 KB of its own data. Without this translation a
// streaming access pattern would never reuse an open row.
func (s *System) localAddr(addr uint64) uint64 {
	il := uint64(s.cfg.InterleaveBytes)
	n := uint64(len(s.channels))
	return (addr/il/n)*il + addr%il
}

// probeMDC looks up the block's metadata line in its controller's MDC,
// counting the outcome. It runs on the coordinator lane, where the two
// channels of a controller can share the cache without synchronisation.
// It reports whether the line must be fetched from DRAM first.
func (s *System) probeMDC(addr uint64, ctrl int) (fetch bool) {
	if s.mdcs[ctrl].lookup(metaLine(addr)) {
		s.front.MDCHits++
		return false
	}
	s.front.MDCMisses++
	s.front.MetaBursts++
	return true
}

// Event opcodes (events.KindMC unless noted). The System is the one
// handler for KindMC and KindDram on every lane it touches, so opcodes
// alone select the action; ev.B always carries the channel index. Events on
// a channel lane carry the global address — localAddr and the metadata-line
// number are pure functions the handler recomputes, which keeps the record
// small.
const (
	opNone uint8 = iota
	// opDrain (KindDram, channel lane): run one DRAM drain step.
	opDrain
	// opRead (channel lane): enqueue a read, via a metadata fetch first when
	// flagFetch is set.
	opRead
	// opReadIssue (channel lane): metadata arrived, enqueue the data read.
	opReadIssue
	// opReadDone (channel lane): data left the bus; count the decompression
	// and forward the completion in Aux to the coordinator.
	opReadDone
	// opWriteData (channel lane): enqueue a posted write.
	opWriteData
	// opWriteMeta (channel lane): enqueue the metadata fetch for a
	// compressed write whose MDC probe missed.
	opWriteMeta
	// opWriteAfterMeta (channel lane): metadata arrived; enqueue the write
	// after the compression latency.
	opWriteAfterMeta
)

// Event argument packing: A = bursts | flags, B = channel index, Addr =
// global address, Aux = packed completion (reads only).
const (
	flagCompressed uint32 = 1 << 8
	flagFetch      uint32 = 1 << 9
	burstsMask     uint32 = 0xff
)

// Reset returns the System to its initial state — counters, MDC contents
// and channel queues — keeping every allocation, so a replay of the same
// access stream is allocation-free.
func (s *System) Reset() {
	s.front = Stats{}
	for i := range s.laneStats {
		s.laneStats[i] = Stats{}
	}
	for _, m := range s.mdcs {
		m.reset()
	}
	for _, ch := range s.channels {
		ch.Reset()
	}
}

// ReadEvent requests a block read: doneEv (Kind/Op/A only, see
// events.PackCompletion) is dispatched on the coordinator lane at the
// completion time — bus transfer plus decompression and the return memory
// path. Compressed reads pay the MDC probe and decompression latency; an
// MDC miss fetches the metadata line from the channel first.
func (s *System) ReadEvent(addr uint64, bursts int, compressed bool, doneEv events.Event) {
	s.front.Reads++
	ch, ctrl := s.route(addr)
	a := uint32(bursts) & burstsMask
	if compressed {
		a |= flagCompressed
		if s.probeMDC(addr, ctrl) {
			a |= flagFetch
		}
	}
	s.coord.SendQueue(s.queues[ch].in, s.coord.Now()+s.pathNs, events.Event{
		Addr: addr,
		Aux:  events.PackCompletion(doneEv),
		A:    a,
		B:    uint32(ch),
		Kind: events.KindMC,
		Op:   opRead,
	})
}

// WriteEvent posts a block writeback (no completion); compression latency
// is paid before the bus transfer.
func (s *System) WriteEvent(addr uint64, bursts int, compressed bool) {
	s.front.Writes++
	ch, ctrl := s.route(addr)
	now := s.coord.Now()
	ev := events.Event{
		Addr: addr,
		A:    uint32(bursts) & burstsMask,
		B:    uint32(ch),
		Kind: events.KindMC,
		Op:   opWriteData,
	}
	q := &s.queues[ch]
	if !compressed {
		s.coord.SendQueue(q.in, now+s.pathNs, ev)
		return
	}
	s.front.Compresses++
	lat := float64(s.cfg.CompressCycles) * s.cycleNs
	if !s.probeMDC(addr, ctrl) {
		s.coord.SendQueue(q.inCompress, now+s.pathNs+lat, ev)
		return
	}
	ev.Op = opWriteMeta
	s.coord.SendQueue(q.in, now+s.pathNs, ev)
}

// metaLine returns the number of the metadata line covering addr.
func metaLine(addr uint64) uint64 { return addr / (blocksPerMetaLine * compress.BlockSize) }

// metaAddr returns the DRAM address of an address's metadata line.
func (s *System) metaAddr(addr uint64) uint64 { return s.metaBase + metaLine(addr)*32 }

// HandleEvent dispatches the System's events on the coordinator and
// channel lanes.
func (s *System) HandleEvent(now float64, ev events.Event) {
	ch := int(ev.B)
	switch ev.Op {
	case opDrain:
		s.channels[ch].DrainStep()
	case opRead:
		if ev.A&flagFetch != 0 {
			meta := ev
			meta.Op = opReadIssue
			s.channels[ch].EnqueueEvent(s.metaAddr(ev.Addr), 1, true, meta)
			return
		}
		s.issueRead(ev)
	case opReadIssue:
		s.issueRead(ev)
	case opReadDone:
		done := events.UnpackCompletion(ev.Aux)
		if ev.A&flagCompressed != 0 {
			s.laneStats[ch].Decompresses++
			decompNs := float64(s.cfg.DecompressCycles) * s.cycleNs
			s.lanes[ch].SendQueue(s.queues[ch].respDecomp, now+decompNs+s.pathNs, done)
			return
		}
		s.lanes[ch].SendQueue(s.queues[ch].resp, now+s.pathNs, done)
	case opWriteData:
		s.channels[ch].EnqueueEvent(s.localAddr(ev.Addr), int(ev.A&burstsMask), false, events.Event{})
	case opWriteMeta:
		after := ev
		after.Op = opWriteAfterMeta
		s.channels[ch].EnqueueEvent(s.metaAddr(ev.Addr), 1, true, after)
	case opWriteAfterMeta:
		lat := float64(s.cfg.CompressCycles) * s.cycleNs
		data := ev
		data.Op = opWriteData
		s.lanes[ch].AtQueue(s.queues[ch].afterMeta, now+lat, data)
	default:
		panic(fmt.Sprintf("mc: unknown event op %d", ev.Op))
	}
}

// issueRead enqueues the data read on the channel, completion opReadDone.
func (s *System) issueRead(ev events.Event) {
	done := ev
	done.Op = opReadDone
	s.channels[int(ev.B)].EnqueueEvent(s.localAddr(ev.Addr), int(ev.A&burstsMask), false, done)
}

// Stats returns the controller counters, merging the coordinator-side
// front-end counters with the per-channel lane shards. Call it only after
// the engine has drained.
func (s *System) Stats() Stats {
	agg := s.front
	for i := range s.laneStats {
		agg.Decompresses += s.laneStats[i].Decompresses
	}
	return agg
}

// DramStats aggregates all channels in index order.
func (s *System) DramStats() dram.Stats {
	var agg dram.Stats
	for _, ch := range s.channels {
		st := ch.Stats()
		agg.Requests += st.Requests
		agg.Bursts += st.Bursts
		agg.MetaBursts += st.MetaBursts
		agg.RowHits += st.RowHits
		agg.RowMisses += st.RowMisses
		agg.Activations += st.Activations
		agg.BusBusyNs += st.BusBusyNs
	}
	return agg
}
