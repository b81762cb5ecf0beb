// Package device models the GPU's global memory and the paper's programming
// model for safe approximation: an extended cudaMalloc that tags a memory
// region as safe-to-approximate (§IV-C):
//
//	cudaMalloc(void** devPtr, size_t size, bool safeToApprox, size_t threshold)
//
// The simulator uses the region table to decide which loads may be served
// from lossily compressed blocks, exactly as the paper's modified gpgpu-sim
// uses the address and size returned by the extended cudaMalloc.
//
// The paper's cudaMalloc also takes a per-region lossy threshold. This
// reproduction departs from that: Malloc takes no threshold, and one lossy
// threshold per configuration (the lossy codec's, e.g. slc.Config's
// ThresholdBits) applies to every safe-to-approximate region, so a threshold
// sweep (slcsim -threshold, experiments.Config.ThresholdBits) moves all of a
// workload's approximable regions at once.
package device

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/compress"
)

// Region is one device allocation.
type Region struct {
	Name         string
	Addr         uint64
	Size         int
	SafeToApprox bool
}

// End returns the first address past the region.
func (r Region) End() uint64 { return r.Addr + uint64(r.Size) }

// Blocks returns the number of 128-byte blocks the region spans.
func (r Region) Blocks() int { return (r.Size + compress.BlockSize - 1) / compress.BlockSize }

// Device is a GPU with a flat global memory. All allocations are block
// aligned; memory is zero-initialised like cudaMalloc'd memory after
// cudaMemset.
type Device struct {
	mem     []byte
	regions []Region
	next    uint64
}

// baseAddr keeps address 0 unused so that 0 can mean "no address".
const baseAddr = uint64(compress.BlockSize)

// New returns an empty device.
func New() *Device {
	return &Device{next: baseAddr}
}

// Malloc allocates a block-aligned region, modelling the paper's extended
// cudaMalloc without its threshold argument (see the package doc).
func (d *Device) Malloc(name string, size int, safeToApprox bool) (Region, error) {
	if size <= 0 {
		return Region{}, fmt.Errorf("device: allocation %q has size %d", name, size)
	}
	aligned := (size + compress.BlockSize - 1) / compress.BlockSize * compress.BlockSize
	r := Region{
		Name:         name,
		Addr:         d.next,
		Size:         aligned,
		SafeToApprox: safeToApprox,
	}
	d.next += uint64(aligned)
	need := int(d.next - baseAddr)
	if need > len(d.mem) {
		grown := make([]byte, need)
		copy(grown, d.mem)
		d.mem = grown
	}
	d.regions = append(d.regions, r)
	return r, nil
}

// Regions returns all allocations in address order.
func (d *Device) Regions() []Region { return d.regions }

// RegionOf returns the region containing addr.
func (d *Device) RegionOf(addr uint64) (Region, bool) {
	for _, r := range d.regions {
		if addr >= r.Addr && addr < r.End() {
			return r, true
		}
	}
	return Region{}, false
}

// SafeToApprox reports whether addr lies in a safe-to-approximate region —
// the load classification the paper derives from the extended cudaMalloc.
func (d *Device) SafeToApprox(addr uint64) bool {
	r, ok := d.RegionOf(addr)
	return ok && r.SafeToApprox
}

// Footprint returns the total allocated bytes.
func (d *Device) Footprint() int { return int(d.next - baseAddr) }

func (d *Device) index(addr uint64, n int) (int, error) {
	if addr < baseAddr || addr+uint64(n) > d.next {
		return 0, fmt.Errorf("device: access [%#x, %#x) outside allocated memory", addr, addr+uint64(n))
	}
	return int(addr - baseAddr), nil
}

// Block returns the 128-byte block containing addr, aliasing device memory.
func (d *Device) Block(addr uint64) ([]byte, error) {
	blockAddr := addr &^ uint64(compress.BlockSize-1)
	i, err := d.index(blockAddr, compress.BlockSize)
	if err != nil {
		return nil, err
	}
	return d.mem[i : i+compress.BlockSize], nil
}

// Bytes returns a slice aliasing device memory for [addr, addr+n).
func (d *Device) Bytes(addr uint64, n int) ([]byte, error) {
	i, err := d.index(addr, n)
	if err != nil {
		return nil, err
	}
	return d.mem[i : i+n], nil
}

// BlockAddrs calls fn with each block address of the region.
func (r Region) BlockAddrs(fn func(addr uint64)) {
	for a := r.Addr; a < r.End(); a += compress.BlockSize {
		fn(a)
	}
}

// Float32 reads a float32 at addr.
func (d *Device) Float32(addr uint64) float32 {
	i, err := d.index(addr, 4)
	if err != nil {
		panic(err)
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(d.mem[i:]))
}

// SetFloat32 writes a float32 at addr.
func (d *Device) SetFloat32(addr uint64, v float32) {
	i, err := d.index(addr, 4)
	if err != nil {
		panic(err)
	}
	binary.LittleEndian.PutUint32(d.mem[i:], math.Float32bits(v))
}

// Uint32 reads a uint32 at addr.
func (d *Device) Uint32(addr uint64) uint32 {
	i, err := d.index(addr, 4)
	if err != nil {
		panic(err)
	}
	return binary.LittleEndian.Uint32(d.mem[i:])
}

// SetUint32 writes a uint32 at addr.
func (d *Device) SetUint32(addr uint64, v uint32) {
	i, err := d.index(addr, 4)
	if err != nil {
		panic(err)
	}
	binary.LittleEndian.PutUint32(d.mem[i:], v)
}

// CopyFloats32 copies host values into the region (cudaMemcpyHostToDevice).
func (d *Device) CopyFloats32(r Region, vals []float32) error {
	if len(vals)*4 > r.Size {
		return fmt.Errorf("device: %d floats exceed region %q (%d bytes)", len(vals), r.Name, r.Size)
	}
	b, err := d.Bytes(r.Addr, len(vals)*4)
	if err != nil {
		return err
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[i*4:], math.Float32bits(v))
	}
	return nil
}

// ReadFloats32 copies the region's first n floats back to the host
// (cudaMemcpyDeviceToHost).
func (d *Device) ReadFloats32(r Region, n int) ([]float32, error) {
	if n*4 > r.Size {
		return nil, fmt.Errorf("device: %d floats exceed region %q", n, r.Name)
	}
	b, err := d.Bytes(r.Addr, n*4)
	if err != nil {
		return nil, err
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out, nil
}

// F32 is a typed view over a region, the device-side array a kernel indexes.
// It keeps only the region's base address and length, not the Region: the
// kernels' inner loops copy the view into every inlined At and Set, so it
// stays three words.
type F32 struct {
	d    *Device
	addr uint64
	n    int
}

// F32View wraps a region as a float32 array.
func (d *Device) F32View(r Region) F32 { return F32{d: d, addr: r.Addr, n: r.Size / 4} }

// Len returns the number of float32 elements.
func (v F32) Len() int { return v.n }

// At returns element i.
func (v F32) At(i int) float32 { return v.d.Float32(v.addr + uint64(i)*4) }

// Set writes element i.
func (v F32) Set(i int, x float32) { v.d.SetFloat32(v.addr+uint64(i)*4, x) }

// Addr returns the device address of element i.
func (v F32) Addr(i int) uint64 { return v.addr + uint64(i)*4 }
