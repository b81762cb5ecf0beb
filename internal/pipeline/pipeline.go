// Package pipeline couples the device memory image to a compression
// configuration. Whenever a region is synchronised (after the host copy-in
// and after each kernel's stores), every block is pushed through the active
// codec: the block's burst count is recorded for the timing trace, and —
// when the SLC decision is lossy — the approximated bytes are written back
// into device memory, so later reads, later iterations and later
// recompressions observe them (the feedback loop of paper §V-A).
package pipeline

import (
	"fmt"
	"sync"

	"repro/internal/compress"
	"repro/internal/gpu/device"
)

// BlockInfo is the stored geometry of one block. A Pipeline keeps one per
// block number (address / BlockSize): device memory is one dense arena, so
// the table is a slice that Sync grows to the region's end. A synced block
// always needs at least one burst, so Bursts == 0 marks a block never
// synced.
type BlockInfo struct {
	Bursts     uint8
	Compressed bool
}

// Stats accumulates per-compression statistics over all Sync calls; the
// distributions feed Figures 1 and 2.
type Stats struct {
	Blocks       int64 // block compressions performed
	LossyBlocks  int64
	Uncompressed int64 // blocks stored raw
	RawBits      int64 // Σ compressed bits, no MAG (raw ratio basis)
	EffBits      int64 // Σ burst-aligned bits (effective ratio basis)
	AboveMAG     []int64
}

// add merges another shard into s. All fields are sums (and AboveMAG a
// vector of sums), so the merged result is independent of shard order.
func (s *Stats) add(o Stats) {
	s.Blocks += o.Blocks
	s.LossyBlocks += o.LossyBlocks
	s.Uncompressed += o.Uncompressed
	s.RawBits += o.RawBits
	s.EffBits += o.EffBits
	for i, v := range o.AboveMAG {
		s.AboveMAG[i] += v
	}
}

// RawRatio returns the raw compression ratio over all compressions.
func (s Stats) RawRatio() float64 {
	if s.RawBits == 0 {
		return 1
	}
	return float64(s.Blocks*compress.BlockBits) / float64(s.RawBits)
}

// EffectiveRatio returns the effective (MAG-aligned) compression ratio.
func (s Stats) EffectiveRatio() float64 {
	if s.EffBits == 0 {
		return 1
	}
	return float64(s.Blocks*compress.BlockBits) / float64(s.EffBits)
}

// Pipeline is one compression configuration bound to a device.
type Pipeline struct {
	dev *device.Device
	mag compress.MAG
	// lossless serves exact regions; lossy (if set) serves
	// safe-to-approximate regions. Either may be nil: nil lossless means no
	// compression at all.
	lossless compress.Codec
	lossy    compress.Codec
	blocks   []BlockInfo
	stats    Stats
	// workers is the Sync fan-out: how many goroutines compress the blocks
	// of one region. 1 means serial. shards is the reused per-worker state,
	// so the Sync steady state performs no per-call allocation.
	workers int
	shards  []syncShard
}

// New builds a pipeline. lossless may be nil (uncompressed baseline); lossy
// may be nil (lossless everywhere, the E2MC baseline).
func New(dev *device.Device, mag compress.MAG, lossless, lossy compress.Codec) (*Pipeline, error) {
	if !mag.Valid() {
		return nil, fmt.Errorf("pipeline: invalid MAG %d", mag)
	}
	return &Pipeline{
		dev:      dev,
		mag:      mag,
		lossless: lossless,
		lossy:    lossy,
		stats:    Stats{AboveMAG: make([]int64, int(mag)+1)},
		workers:  1,
	}, nil
}

// SetWorkers sets how many goroutines Sync uses to compress the blocks of a
// region. Values below 1 select serial execution. Blocks are independent
// (each owns its 128 bytes of device memory) and all statistics are sums, so
// results are identical to serial execution for any worker count; the codecs
// must be safe for concurrent SyncBlock calls (all codecs in this repository
// are).
func (p *Pipeline) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	p.workers = n
}

// Sync pushes every block of the region through the codec, updating burst
// bookkeeping and applying lossy mutations to device memory. The address
// loops are written out inline (rather than through Region.BlockAddrs) so
// the serial steady state allocates nothing per call.
func (p *Pipeline) Sync(r device.Region) {
	codec := p.lossless
	if r.SafeToApprox && p.lossy != nil {
		codec = p.lossy
	}
	if end := int((r.End() + compress.BlockSize - 1) / compress.BlockSize); end > len(p.blocks) {
		p.blocks = append(p.blocks, make([]BlockInfo, end-len(p.blocks))...)
	}
	if codec == nil {
		// Uncompressed baseline: full bursts, nothing stored.
		for addr := r.Addr; addr < r.End(); addr += compress.BlockSize {
			p.blocks[addr/compress.BlockSize] = BlockInfo{Bursts: uint8(p.mag.MaxBursts())}
		}
		return
	}
	if p.workers <= 1 {
		p.syncRange(codec, r, r.Addr, r.End(), &p.stats)
		return
	}
	p.syncParallel(codec, r)
}

// syncRange compresses the blocks of r in [lo, hi) into their block-table
// slots. Serial Sync runs it over the whole region; each parallel worker
// over its own disjoint span, so the workers write the table in place.
func (p *Pipeline) syncRange(codec compress.Codec, r device.Region, lo, hi uint64, st *Stats) {
	for addr := lo; addr < hi; addr += compress.BlockSize {
		p.blocks[addr/compress.BlockSize] = p.compressBlock(codec, r, addr, st)
	}
}

// compressBlock pushes one block through the codec's SyncBlock, which sizes
// it and applies any lossy write-back to device memory in place, and
// accumulates st. Serial and parallel Sync share it so their per-block
// behaviour stays identical. No bitstream is materialised: the sync step
// needs only the size, and the compress.Codec contract makes SyncBlock's
// bits, lossy flag and write-back those of Compress and Decompress.
func (p *Pipeline) compressBlock(codec compress.Codec, r device.Region, addr uint64, st *Stats) BlockInfo {
	block, err := p.dev.Block(addr)
	if err != nil {
		panic(fmt.Sprintf("pipeline: sync %s: %v", r.Name, err))
	}
	bits, lossy := codec.SyncBlock(block)
	if lossy {
		st.LossyBlocks++
	}
	info := BlockInfo{
		Bursts:     uint8(p.mag.Bursts(bits)),
		Compressed: bits < compress.BlockBits,
	}
	st.Blocks++
	if !info.Compressed {
		st.Uncompressed++
	}
	st.RawBits += int64(bits)
	st.EffBits += int64(p.mag.EffectiveBits(bits))
	st.AboveMAG[p.mag.BytesAboveMAG(bits)]++
	return info
}

// syncShard is the private state of one Sync worker: its own Stats (with its
// own AboveMAG histogram), merged deterministically once all workers finish.
// Shards persist on the Pipeline across Sync calls; reset clears the
// accumulators while keeping the backing storage, so a warm parallel Sync
// reuses every worker buffer.
type syncShard struct {
	stats  Stats
	panicV interface{}
}

// reset prepares a shard for reuse under the given MAG histogram size.
func (sh *syncShard) reset(magBuckets int) {
	if cap(sh.stats.AboveMAG) < magBuckets {
		sh.stats.AboveMAG = make([]int64, magBuckets)
	}
	above := sh.stats.AboveMAG[:magBuckets]
	for i := range above {
		above[i] = 0
	}
	sh.stats = Stats{AboveMAG: above}
	sh.panicV = nil
}

// syncParallel fans the region's blocks across the worker pool. Each worker
// owns a contiguous address range and a Stats shard, and
// writes its blocks' table slots in place (the ranges are disjoint). The
// merge after the barrier walks shards in index order, and since every
// statistic is a sum, the result is bitwise identical to serial execution.
func (p *Pipeline) syncParallel(codec compress.Codec, r device.Region) {
	n := r.Blocks()
	workers := min(p.workers, n)
	if workers == 0 {
		return
	}
	if cap(p.shards) < workers {
		p.shards = make([]syncShard, workers)
	}
	shards := p.shards[:workers]
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for wi := range shards {
		lo := r.Addr + uint64(wi*chunk)*compress.BlockSize
		hi := min(lo+uint64(chunk)*compress.BlockSize, r.End())
		shards[wi].reset(int(p.mag) + 1)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(sh *syncShard) {
			defer wg.Done()
			defer func() { sh.panicV = recover() }()
			p.syncRange(codec, r, lo, hi, &sh.stats)
		}(&shards[wi])
	}
	wg.Wait()
	for i := range shards {
		if v := shards[i].panicV; v != nil {
			panic(v)
		}
	}
	for i := range shards {
		p.stats.add(shards[i].stats)
	}
}

// BurstsFor implements the trace recorder's lookup: burst count and
// compressed flag for a block, defaulting to a raw block when never synced.
//
//slclint:allocfree
func (p *Pipeline) BurstsFor(addr uint64) (int, bool) {
	if b := addr / compress.BlockSize; b < uint64(len(p.blocks)) && p.blocks[b].Bursts != 0 {
		return int(p.blocks[b].Bursts), p.blocks[b].Compressed
	}
	return p.mag.MaxBursts(), false
}

// Stats returns the accumulated statistics.
func (p *Pipeline) Stats() Stats { return p.stats }
