// Package bdi implements Base-Delta-Immediate compression (Pekhimenko et
// al., PACT 2012), one of the four lossless baselines whose effective
// compression ratio the SLC paper shows to suffer from memory access
// granularity (Figure 1).
//
// BDI represents a block as one arbitrary base plus one implicit zero base;
// every k-byte element is stored as a small delta from whichever base covers
// it, with a per-element mask bit selecting the base. Eight encodings are
// tried (zeros, repeated value, and six base/delta geometries) and the
// smallest that covers the block wins.
package bdi

import (
	"encoding/binary"
	"fmt"

	"repro/internal/compress"
)

// encoding identifies one BDI geometry.
type encoding uint8

const (
	encUncompressed encoding = iota
	encZeros                 // all-zero block
	encRep8                  // repeated 8-byte value
	encB8D1                  // 8-byte base, 1-byte deltas
	encB8D2                  // 8-byte base, 2-byte deltas
	encB8D4                  // 8-byte base, 4-byte deltas
	encB4D1                  // 4-byte base, 1-byte deltas
	encB4D2                  // 4-byte base, 2-byte deltas
	encB2D1                  // 2-byte base, 1-byte deltas
	numEncodings
)

const headerBits = 4 // encoding selector stored with the block

// geometry describes the base/delta split of one encoding.
type geometry struct {
	base  int // base size in bytes
	delta int // delta size in bytes
}

var geometries = map[encoding]geometry{
	encB8D1: {8, 1},
	encB8D2: {8, 2},
	encB8D4: {8, 4},
	encB4D1: {4, 1},
	encB4D2: {4, 2},
	encB2D1: {2, 1},
}

var encodingNames = map[encoding]string{
	encUncompressed: "uncompressed",
	encZeros:        "zeros",
	encRep8:         "rep8",
	encB8D1:         "base8-delta1",
	encB8D2:         "base8-delta2",
	encB8D4:         "base8-delta4",
	encB4D1:         "base4-delta1",
	encB4D2:         "base4-delta2",
	encB2D1:         "base2-delta1",
}

// Codec is the BDI compressor/decompressor. The zero value is ready to use.
type Codec struct{}

// Name implements compress.Codec.
func (Codec) Name() string { return "BDI" }

// compressedBits returns the total encoded size of a geometry for one block:
// selector + base + per-element mask + per-element delta.
func (g geometry) compressedBits() int {
	n := compress.BlockSize / g.base
	return headerBits + g.base*8 + n + n*g.delta*8
}

// fits reports whether v, interpreted as a signed two's-complement value,
// fits in `bytes` bytes.
func fits(v uint64, bytes int) bool {
	s := int64(v)
	lim := int64(1) << uint(bytes*8-1)
	return s >= -lim && s < lim
}

// elements splits the block into n unsigned values of size bytes.
func elements(block []byte, size int) []uint64 {
	n := compress.BlockSize / size
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		switch size {
		case 2:
			out[i] = uint64(binary.LittleEndian.Uint16(block[i*2:]))
		case 4:
			out[i] = uint64(binary.LittleEndian.Uint32(block[i*4:]))
		case 8:
			out[i] = binary.LittleEndian.Uint64(block[i*8:])
		default:
			panic("bdi: bad element size")
		}
	}
	return out
}

// signExtend interprets the low `bytes` bytes of v as signed and widens to 64
// bits.
func signExtend(v uint64, bytes int) uint64 {
	shift := uint(64 - bytes*8)
	return uint64(int64(v<<shift) >> shift)
}

// tryGeometry attempts one base/delta encoding. It returns the chosen base
// and per-element (useZeroBase, delta) assignments, or ok=false if some
// element fits neither base. Differences are taken modulo the element width,
// matching a hardware subtractor of that width.
func tryGeometry(block []byte, g geometry) (base uint64, mask []bool, deltas []uint64, ok bool) {
	elems := elements(block, g.base)
	mask = make([]bool, len(elems))
	deltas = make([]uint64, len(elems))
	elemMask := ^uint64(0) >> uint(64-g.base*8)
	haveBase := false
	for i, e := range elems {
		if es := signExtend(e, g.base); fits(es, g.delta) {
			mask[i] = true // covered by the implicit zero base
			deltas[i] = es
			continue
		}
		if !haveBase {
			base = e // first value not covered by zero becomes the base
			haveBase = true
		}
		d := signExtend((e-base)&elemMask, g.base)
		if !fits(d, g.delta) {
			return 0, nil, nil, false
		}
		deltas[i] = d
	}
	return base, mask, deltas, true
}

// analyze picks the smallest encoding that covers the block.
func analyze(block []byte) (encoding, int) {
	words := compress.Words(block)
	allZero := true
	for _, w := range words {
		if w != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		return encZeros, headerBits
	}

	first := binary.LittleEndian.Uint64(block)
	rep := true
	for i := 8; i < compress.BlockSize; i += 8 {
		if binary.LittleEndian.Uint64(block[i:]) != first {
			rep = false
			break
		}
	}
	best, bestBits := encUncompressed, compress.BlockBits
	if rep {
		best, bestBits = encRep8, headerBits+64
	}
	for enc, g := range geometries {
		bits := g.compressedBits()
		if bits >= bestBits {
			continue
		}
		if _, _, _, ok := tryGeometry(block, g); ok {
			best, bestBits = enc, bits
		}
	}
	return best, bestBits
}

// SyncBlock implements compress.Codec; BDI is lossless.
func (Codec) SyncBlock(block []byte) (int, bool) {
	_, bits := analyze(block)
	return bits, false
}

// Compress implements compress.Codec.
func (c Codec) Compress(block []byte) compress.Encoded {
	if err := compress.CheckBlock(block); err != nil {
		panic(err)
	}
	enc, bits := analyze(block)
	w := compress.NewBitWriter(bits)
	w.WriteBits(uint64(enc), headerBits)
	switch enc {
	case encUncompressed:
		for _, b := range block {
			w.WriteBits(uint64(b), 8)
		}
		return compress.Encoded{Bits: compress.BlockBits, Payload: w.Bytes()}
	case encZeros:
		// selector only
	case encRep8:
		w.WriteBits(binary.LittleEndian.Uint64(block), 64)
	default:
		g := geometries[enc]
		base, mask, deltas, ok := tryGeometry(block, g)
		if !ok {
			panic("bdi: analyze/compress disagreement")
		}
		w.WriteBits(base, g.base*8)
		for _, m := range mask {
			w.WriteBool(m)
		}
		for _, d := range deltas {
			w.WriteBits(d, g.delta*8)
		}
	}
	if w.Len() != bits {
		panic(fmt.Sprintf("bdi: emitted %d bits, expected %d", w.Len(), bits))
	}
	return compress.Encoded{Bits: bits, Payload: w.Bytes()}
}

// Decompress implements compress.Codec.
func (c Codec) Decompress(e compress.Encoded, dst []byte) error {
	if len(dst) < compress.BlockSize {
		return fmt.Errorf("bdi: dst too small (%d bytes)", len(dst))
	}
	r := compress.NewBitReader(e.Payload)
	sel, err := r.ReadBits(headerBits)
	if err != nil {
		return fmt.Errorf("bdi: reading selector: %w", err)
	}
	enc := encoding(sel)
	switch enc {
	case encUncompressed:
		for i := 0; i < compress.BlockSize; i++ {
			v, err := r.ReadBits(8)
			if err != nil {
				return fmt.Errorf("bdi: raw byte %d: %w", i, err)
			}
			dst[i] = byte(v)
		}
		return nil
	case encZeros:
		for i := 0; i < compress.BlockSize; i++ {
			dst[i] = 0
		}
		return nil
	case encRep8:
		v, err := r.ReadBits(64)
		if err != nil {
			return fmt.Errorf("bdi: rep value: %w", err)
		}
		for i := 0; i < compress.BlockSize; i += 8 {
			binary.LittleEndian.PutUint64(dst[i:], v)
		}
		return nil
	}
	g, ok := geometries[enc]
	if !ok {
		return fmt.Errorf("bdi: unknown encoding %d", enc)
	}
	base, err := r.ReadBits(g.base * 8)
	if err != nil {
		return fmt.Errorf("bdi: base: %w", err)
	}
	n := compress.BlockSize / g.base
	mask := make([]bool, n)
	for i := range mask {
		mask[i], err = r.ReadBool()
		if err != nil {
			return fmt.Errorf("bdi: mask bit %d: %w", i, err)
		}
	}
	for i := 0; i < n; i++ {
		d, err := r.ReadBits(g.delta * 8)
		if err != nil {
			return fmt.Errorf("bdi: delta %d: %w", i, err)
		}
		d = signExtend(d, g.delta)
		var v uint64
		if mask[i] {
			v = d // zero base
		} else {
			v = base + d
		}
		switch g.base {
		case 2:
			binary.LittleEndian.PutUint16(dst[i*2:], uint16(v))
		case 4:
			binary.LittleEndian.PutUint32(dst[i*4:], uint32(v))
		case 8:
			binary.LittleEndian.PutUint64(dst[i*8:], v)
		}
	}
	return nil
}

// EncodingName reports the human-readable name of the encoding chosen for a
// block; useful for diagnostics and tests.
func EncodingName(block []byte) string {
	enc, _ := analyze(block)
	return encodingNames[enc]
}
