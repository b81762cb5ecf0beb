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
	// Grow to the exact size. An amortised append would save copies but
	// leaves up to a quarter of the memory as zeroed, resident spare
	// capacity, which callers that keep a Bytes alias of the image pay
	// for in peak RSS.
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

// accessError reports an access to [addr, addr+n) that leaves allocated
// memory. It is a small value type, not a fmt.Errorf call, so that the
// word accessors' failure path stays cheap enough for them to inline.
type accessError struct {
	addr uint64
	n    int
}

func (e accessError) Error() string {
	return fmt.Sprintf("device: access [%#x, %#x) outside allocated memory", e.addr, e.addr+uint64(e.n))
}

// viewError reports an F32 index outside its view, the n words from addr.
// The index may well name allocated memory, a neighbouring region's, so it
// gets its own wording rather than accessError's. Like accessError it is a
// small value type, so that At and Set still inline.
type viewError struct {
	addr uint64
	i, n int
}

func (e viewError) Error() string {
	return fmt.Sprintf("device: index %d outside view [%#x, %#x)", e.i, e.addr, e.addr+4*uint64(e.n))
}

func (d *Device) index(addr uint64, n int) (int, error) {
	if addr < baseAddr || addr+uint64(n) > d.next {
		return 0, accessError{addr, n}
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

// float32At reads a float32 at addr. It panics with an accessError if any of
// the four bytes lies outside allocated memory. addr-baseAddr wraps for an
// address below baseAddr, so one unsigned compare against len(d.mem)-4
// rejects both sides; the n < 4 test covers the empty device, where that
// subtraction would wrap too.
func (d *Device) float32At(addr uint64) float32 {
	i, n := addr-baseAddr, uint64(len(d.mem))
	if n < 4 || i > n-4 {
		panic(accessError{addr, 4})
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(d.mem[i:]))
}

// setFloat32 writes a float32 at addr, with float32At's bounds check.
func (d *Device) setFloat32(addr uint64, v float32) {
	i, n := addr-baseAddr, uint64(len(d.mem))
	if n < 4 || i > n-4 {
		panic(accessError{addr, 4})
	}
	binary.LittleEndian.PutUint32(d.mem[i:], math.Float32bits(v))
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
// At and Set inline whole into the kernels' inner loops, their bounds check
// included, and each inlined call copies the view. So it keeps only the
// region's base address and length, not the Region with its name and flags,
// and stays three words.
type F32 struct {
	d    *Device
	addr uint64
	n    int
}

// F32View wraps a region as a float32 array.
func (d *Device) F32View(r Region) F32 { return F32{d: d, addr: r.Addr, n: r.Size / 4} }

// Len returns the number of float32 elements.
func (v F32) Len() int { return v.n }

// At returns element i. It panics with a viewError if i lies outside
// [0, Len()): the check is against the view, not the device, so an index
// past the end cannot read the next region. A view lies inside allocated
// memory, so this one check covers the device bounds too.
func (v F32) At(i int) float32 {
	if uint(i) >= uint(v.n) {
		panic(viewError{v.addr, i, v.n})
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(v.d.mem[v.addr-baseAddr+uint64(i)*4:]))
}

// Set writes element i, with At's bounds check.
func (v F32) Set(i int, x float32) {
	if uint(i) >= uint(v.n) {
		panic(viewError{v.addr, i, v.n})
	}
	binary.LittleEndian.PutUint32(v.d.mem[v.addr-baseAddr+uint64(i)*4:], math.Float32bits(x))
}

// Addr returns the device address of element i.
func (v F32) Addr(i int) uint64 { return v.addr + uint64(i)*4 }
