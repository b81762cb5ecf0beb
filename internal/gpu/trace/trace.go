// Package trace defines the memory access traces the timing simulator
// replays. Workloads emit per-warp, block-granular accesses (one coalesced
// 128-byte access per warp of 32 threads × 4 bytes); each access records the
// burst count in effect for its block under the active compression
// configuration, so the timing replay is independent of block data.
package trace

import "repro/internal/compress"

// Access is one coalesced warp access to a 128-byte block.
type Access struct {
	Addr       uint64 // block-aligned device address
	Write      bool
	Compressed bool   // block is stored compressed (decompression on fetch)
	Bursts     uint8  // DRAM bursts this block transfer needs (1..MaxBursts)
	Compute    uint16 // issue slots (SM cycles) of compute preceding this access
}

// Kernel is one kernel launch: a set of warps, each with an ordered access
// stream. Kernels execute back-to-back with a barrier in between, as
// successive CUDA kernel launches do.
type Kernel struct {
	Name  string
	Warps [][]Access
}

// Trace is the full execution: kernels in launch order.
type Trace struct {
	Kernels []Kernel
}

// Stats summarises a trace.
type Stats struct {
	Kernels  int
	Warps    int
	Accesses int
	Reads    int
	Writes   int
	Bursts   int
	Bytes    int
	Compute  int64
}

// Stats computes summary statistics with the given MAG (for byte volume).
func (t *Trace) Stats(mag compress.MAG) Stats {
	var s Stats
	s.Kernels = len(t.Kernels)
	for _, k := range t.Kernels {
		s.Warps += len(k.Warps)
		for _, w := range k.Warps {
			s.Accesses += len(w)
			for _, a := range w {
				if a.Write {
					s.Writes++
				} else {
					s.Reads++
				}
				s.Bursts += int(a.Bursts)
				s.Compute += int64(a.Compute)
			}
		}
	}
	s.Bytes = s.Bursts * int(mag)
	return s
}

// Recorder builds a trace as a workload runs. BurstsFor supplies the burst
// count and compressed flag per block under the active compression
// configuration; it must be set before any Access call.
//
// Sink, when set, receives each kernel once it is finished — at the next
// BeginKernel, or at Close for the last one — so a consumer such as the
// timing simulator can replay kernel N while the workload computes kernel
// N+1. A finished kernel is never modified again, so the consumer may read
// it from another goroutine; the recorded Trace keeps every kernel either
// way.
type Recorder struct {
	BurstsFor func(addr uint64) (bursts int, compressed bool)
	Sink      func(k *Kernel)
	trace     Trace
	cur       *Kernel
}

// NewRecorder returns a recorder using the given burst lookup.
func NewRecorder(burstsFor func(addr uint64) (int, bool)) *Recorder {
	return &Recorder{BurstsFor: burstsFor}
}

// BeginKernel finishes the current kernel, if any, and starts a new one with
// the given warp count.
func (r *Recorder) BeginKernel(name string, warps int) {
	r.Close()
	r.trace.Kernels = append(r.trace.Kernels, Kernel{
		Name:  name,
		Warps: make([][]Access, warps),
	})
	r.cur = &r.trace.Kernels[len(r.trace.Kernels)-1]
}

// Close finishes the current kernel, handing it to Sink. It is idempotent;
// a later BeginKernel starts a new kernel as usual.
func (r *Recorder) Close() {
	if r.cur != nil && r.Sink != nil {
		r.Sink(r.cur)
	}
	r.cur = nil
}

// Access appends one block access for a warp. addr is truncated to its block;
// compute is the issue-slot gap since the warp's previous access.
func (r *Recorder) Access(warp int, addr uint64, write bool, compute int) {
	if r.cur == nil {
		panic("trace: Access before BeginKernel")
	}
	blockAddr := addr &^ uint64(compress.BlockSize-1)
	b, comp := r.BurstsFor(blockAddr)
	if b < 1 {
		b = 1
	}
	if b > 255 {
		b = 255
	}
	if compute < 0 {
		compute = 0
	}
	if compute > 65535 {
		compute = 65535
	}
	r.cur.Warps[warp] = append(r.cur.Warps[warp], Access{
		Addr:       blockAddr,
		Write:      write,
		Compressed: comp,
		Bursts:     uint8(b),
		Compute:    uint16(compute),
	})
}

// Trace returns the recorded trace.
func (r *Recorder) Trace() *Trace { return &r.trace }
