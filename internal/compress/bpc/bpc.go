// Package bpc implements Bit-Plane Compression (Kim et al., ISCA 2016). The
// SLC paper argues qualitatively (§II-A) that BPC suffers from memory access
// granularity like the four measured baselines, because its run-length and
// frequent-pattern encodings exploit the same redundancy as FPC and C-PACK;
// this implementation makes that claim quantitative (see the Figure 1
// extension in the report).
//
// BPC transforms a block before encoding: the 32 words are delta-encoded
// against their predecessor (DBP), the 31 deltas are transposed into 33
// bit-planes (each plane holds one bit position across all deltas), and
// adjacent planes are XORed (DBX). The transformed planes are then
// run-length / pattern encoded. The transform turns value locality into long
// zero runs, which the plane encoder captures.
package bpc

import (
	"fmt"

	"repro/internal/compress"
)

// Codec is the BPC compressor/decompressor. The zero value is ready to use.
type Codec struct{}

// Name implements compress.Codec.
func (Codec) Name() string { return "BPC" }

const (
	words  = compress.WordsPerBlock // 32
	deltas = words - 1              // 31 deltas
	planes = 33                     // 32 delta bits + sign plane
)

// transform produces the base word and the DBX planes.
func transform(w [words]uint32) (base uint32, dbx [planes]uint64) {
	base = w[0]
	// Sign-extended 33-bit deltas.
	var d [deltas]int64
	for i := 0; i < deltas; i++ {
		d[i] = int64(int32(w[i+1])) - int64(int32(w[i]))
	}
	// DBP: bit-plane transpose. Plane p (0..32) collects bit p of every
	// delta; plane 32 is the sign plane.
	var dbp [planes]uint64
	for p := 0; p < planes; p++ {
		var row uint64
		for i := 0; i < deltas; i++ {
			row |= (uint64(d[i]>>uint(p)) & 1) << uint(i)
		}
		dbp[p] = row
	}
	// DBX: XOR adjacent planes (plane 32 kept as-is as the reference).
	dbx[planes-1] = dbp[planes-1]
	for p := planes - 2; p >= 0; p-- {
		dbx[p] = dbp[p] ^ dbp[p+1]
	}
	return base, dbx
}

// inverse reverses transform.
func inverse(base uint32, dbx [planes]uint64) [words]uint32 {
	var dbp [planes]uint64
	dbp[planes-1] = dbx[planes-1]
	for p := planes - 2; p >= 0; p-- {
		dbp[p] = dbx[p] ^ dbp[p+1]
	}
	var d [deltas]int64
	for i := 0; i < deltas; i++ {
		var v uint64
		for p := 0; p < planes; p++ {
			v |= (dbp[p] >> uint(i) & 1) << uint(p)
		}
		// Sign-extend from 33 bits.
		d[i] = int64(v<<31) >> 31
	}
	var w [words]uint32
	w[0] = base
	for i := 0; i < deltas; i++ {
		w[i+1] = uint32(int64(int32(w[i])) + d[i])
	}
	return w
}

// Plane codes, after the BPC paper's Table: a zero plane is 1 bit; runs of
// zero planes use a 5-bit length; all-ones planes and planes with one or two
// set bits have short codes; anything else is raw.
const (
	// code prefixes (written MSB first)
	cZeroRun = 0b01 // 2 + 5 bits: run of 2..33 zero planes
	cZero    = 0b1  // 1 bit: single zero plane
	cAllOnes = 0b00000
	cOneBit  = 0b00001 // 5 + 5 bits: exactly one bit set (index)
	cTwoBits = 0b00010 // 5 + 10 bits: consecutive two bits set? kept simple: two indices
	cRaw     = 0b00011 // 5 + 31 bits raw plane
)

// encodePlane writes one plane (or a zero-run) and returns how many planes
// it consumed.
func encodePlanes(w *compress.BitWriter, dbx []uint64, i int) int {
	p := dbx[i]
	if p == 0 {
		run := 1
		for i+run < len(dbx) && dbx[i+run] == 0 && run < 33 {
			run++
		}
		if run >= 2 {
			w.WriteBits(cZeroRun, 2)
			w.WriteBits(uint64(run-2), 5)
			return run
		}
		w.WriteBits(cZero, 1)
		return 1
	}
	mask := uint64(1)<<deltas - 1
	switch {
	case p == mask:
		w.WriteBits(cAllOnes, 5)
	case popcount(p) == 1:
		w.WriteBits(cOneBit, 5)
		w.WriteBits(uint64(trailing(p)), 5)
	case popcount(p) == 2:
		w.WriteBits(cTwoBits, 5)
		first := trailing(p)
		w.WriteBits(uint64(first), 5)
		w.WriteBits(uint64(trailing(p&^(1<<uint(first)))), 5)
	default:
		w.WriteBits(cRaw, 5)
		w.WriteBits(p, deltas)
	}
	return 1
}

func popcount(v uint64) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}

func trailing(v uint64) int {
	n := 0
	for v&1 == 0 {
		v >>= 1
		n++
	}
	return n
}

// SyncBlock implements compress.Codec; BPC is lossless.
func (c Codec) SyncBlock(block []byte) (int, bool) {
	return c.Compress(block).Bits, false
}

// Compress implements compress.Codec.
func (c Codec) Compress(block []byte) compress.Encoded {
	if err := compress.CheckBlock(block); err != nil {
		panic(err)
	}
	base, dbx := transform(compress.Words(block))
	w := compress.NewBitWriter(compress.BlockBits)
	w.WriteBits(uint64(base), 32)
	for i := 0; i < planes; {
		i += encodePlanes(w, dbx[:], i)
	}
	if w.Len() >= compress.BlockBits {
		p := make([]byte, compress.BlockSize)
		copy(p, block)
		return compress.Encoded{Bits: compress.BlockBits, Payload: p}
	}
	return compress.Encoded{Bits: w.Len(), Payload: w.Bytes()}
}

// Decompress implements compress.Codec.
func (c Codec) Decompress(e compress.Encoded, dst []byte) error {
	if len(dst) < compress.BlockSize {
		return fmt.Errorf("bpc: dst too small (%d bytes)", len(dst))
	}
	if e.Bits >= compress.BlockBits {
		if len(e.Payload) < compress.BlockSize {
			return fmt.Errorf("bpc: raw payload too short")
		}
		copy(dst, e.Payload[:compress.BlockSize])
		return nil
	}
	r := compress.NewBitReader(e.Payload)
	baseV, err := r.ReadBits(32)
	if err != nil {
		return fmt.Errorf("bpc: base: %w", err)
	}
	var dbx [planes]uint64
	for i := 0; i < planes; {
		n, err := decodePlane(r, dbx[:], i)
		if err != nil {
			return fmt.Errorf("bpc: plane %d: %w", i, err)
		}
		i += n
	}
	words := inverse(uint32(baseV), dbx)
	compress.PutWords(dst, words)
	return nil
}

// decodePlane reads one plane record into dbx[i:]; returns planes consumed.
func decodePlane(r *compress.BitReader, dbx []uint64, i int) (int, error) {
	b, err := r.ReadBits(1)
	if err != nil {
		return 0, err
	}
	if b == 1 { // single zero plane
		dbx[i] = 0
		return 1, nil
	}
	b2, err := r.ReadBits(1)
	if err != nil {
		return 0, err
	}
	if b2 == 1 { // 01: zero run
		run, err := r.ReadBits(5)
		if err != nil {
			return 0, err
		}
		n := int(run) + 2
		if i+n > len(dbx) {
			return 0, fmt.Errorf("zero run of %d overflows planes", n)
		}
		for k := 0; k < n; k++ {
			dbx[i+k] = 0
		}
		return n, nil
	}
	// 00xxx: 5-bit code; two bits consumed, read three more.
	rest, err := r.ReadBits(3)
	if err != nil {
		return 0, err
	}
	mask := uint64(1)<<deltas - 1
	switch code := rest; code {
	case cAllOnes & 0b111:
		dbx[i] = mask
	case cOneBit & 0b111:
		idx, err := r.ReadBits(5)
		if err != nil {
			return 0, err
		}
		if idx >= deltas {
			return 0, fmt.Errorf("bit index %d out of range", idx)
		}
		dbx[i] = 1 << idx
	case cTwoBits & 0b111:
		a, err := r.ReadBits(5)
		if err != nil {
			return 0, err
		}
		b, err := r.ReadBits(5)
		if err != nil {
			return 0, err
		}
		if a >= deltas || b >= deltas || a == b {
			return 0, fmt.Errorf("bit indices %d,%d invalid", a, b)
		}
		dbx[i] = 1<<a | 1<<b
	case cRaw & 0b111:
		v, err := r.ReadBits(deltas)
		if err != nil {
			return 0, err
		}
		dbx[i] = v
	default:
		return 0, fmt.Errorf("unknown plane code %03b", code)
	}
	return 1, nil
}
