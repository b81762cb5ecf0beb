package workloads

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/compress"
	"repro/internal/gpu/device"
)

// Trace-emission helpers. Kernels access memory in coalesced 128-byte block
// transactions; these helpers map element ranges onto block accesses using
// CTA-style decomposition: each warp is short-lived and covers a small
// contiguous run of blocks, and warps are numbered in address order. The
// simulator keeps a bounded number of warps resident per SM, so the active
// window slides coherently through the address space — the behaviour of a
// real grid launch, and what gives DRAM its row locality.

// blocksPerWarp is the contiguous block run one trace warp covers (a
// 256-thread CTA touching 4-byte elements spans 8 blocks).
const blocksPerWarp = 8

// warpOf maps a block index to its warp.
func warpOf(b int) int { return b / blocksPerWarp }

// warpsFor returns the warp count covering the given block count.
func warpsFor(blocks int) int { return (blocks + blocksPerWarp - 1) / blocksPerWarp }

// floatsPerBlock is the number of float32 elements per 128-byte block.
const floatsPerBlock = compress.BlockSize / 4

// streamSpec describes one grid-stride streaming kernel: per element chunk,
// every Reads region is read and every Writes region written, with Compute
// issue slots attached to each access.
type streamSpec struct {
	Name    string
	Reads   []device.Region
	Writes  []device.Region
	Blocks  int // number of 128-byte blocks to stream per region
	Compute int // issue slots per access
}

// emitStream records the trace of a streaming kernel: block i of every
// region belongs to warp i/blocksPerWarp.
func emitStream(ctx *Ctx, s streamSpec) {
	if ctx.Rec == nil || s.Blocks == 0 {
		return
	}
	ctx.Rec.BeginKernel(s.Name, warpsFor(s.Blocks))
	for b := 0; b < s.Blocks; b++ {
		w := warpOf(b)
		off := uint64(b) * compress.BlockSize
		for _, r := range s.Reads {
			ctx.Rec.Access(w, r.Addr+off, false, s.Compute)
		}
		for _, r := range s.Writes {
			ctx.Rec.Access(w, r.Addr+off, true, s.Compute)
		}
	}
}

// blocksForFloats returns the block count covering n float32 elements.
func blocksForFloats(n int) int {
	return (n*4 + compress.BlockSize - 1) / compress.BlockSize
}

// copyIn fills a region from host floats and synchronises it through the
// compression pipeline (the initial cudaMemcpyHostToDevice, after which the
// data lives compressed in DRAM).
func copyIn(ctx *Ctx, r device.Region, vals []float32) error {
	if err := ctx.Dev.CopyFloats32(r, vals); err != nil {
		return err
	}
	ctx.Sync(r)
	return nil
}

// copyInImage is copyIn for an image: it fills a region with f of every
// pixel value of img (the pixel values themselves when f is nil) and
// synchronises it. f runs once per level, and the image is written to the
// device without a float32 copy on the host.
func copyInImage(ctx *Ctx, r device.Region, img grayLevels, f func(float32) float32) error {
	if len(img)*4 > r.Size {
		return fmt.Errorf("workloads: %d pixels exceed region %q (%d bytes)", len(img), r.Name, r.Size)
	}
	b, err := ctx.Dev.Bytes(r.Addr, len(img)*4)
	if err != nil {
		return err
	}
	var bits [256]uint32
	for k := range bits {
		p := float32(float64(k) / 255)
		if f != nil {
			p = f(p)
		}
		bits[k] = math.Float32bits(p)
	}
	for i, k := range img {
		binary.LittleEndian.PutUint32(b[i*4:], bits[k])
	}
	ctx.Sync(r)
	return nil
}

// readOut reads n floats back as float64 for error evaluation.
func readOut(ctx *Ctx, r device.Region, n int) ([]float64, error) {
	f, err := ctx.Dev.ReadFloats32(r, n)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i, v := range f {
		out[i] = float64(v)
	}
	return out, nil
}
