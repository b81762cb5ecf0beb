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
	"math/bits"

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

// transform produces the base word and the DBX planes. Planes 0–31 are the
// 32×32 bit-matrix transpose of the deltas' low words (row i holds delta i,
// row 31 is empty), so plane p collects bit p of every delta; plane 32 is
// the sign plane, bit 32 of the sign-extended 33-bit deltas.
//
//slclint:allocfree
func transform(w [words]uint32) (base uint32, dbx [planes]uint64) {
	base = w[0]
	var rows [32]uint32
	var sign uint64
	for i := 0; i < deltas; i++ {
		d := int64(int32(w[i+1])) - int64(int32(w[i]))
		rows[i] = uint32(d)
		sign |= uint64(d>>63&1) << uint(i)
	}
	transpose32(&rows)
	// DBX: XOR adjacent planes (plane 32 kept as-is as the reference).
	dbx[planes-1] = sign
	next := sign
	for p := planes - 2; p >= 0; p-- {
		dbx[p] = uint64(rows[p]) ^ next
		next = uint64(rows[p])
	}
	return base, dbx
}

// transpose32 transposes a 32×32 bit matrix in place: bit j of a[i] trades
// places with bit i of a[j]. Round j swaps the off-diagonal j×j blocks of
// every 2j×2j block, for j = 16, 8, 4, 2, 1 (Hacker's Delight, §7-3).
//
//slclint:allocfree
func transpose32(a *[32]uint32) {
	m := uint32(0x0000FFFF)
	for j := 16; j != 0; j >>= 1 {
		for k := 0; k < 32; k = (k + j + 1) &^ j {
			t := (a[k]>>uint(j) ^ a[k+j]) & m
			a[k] ^= t << uint(j)
			a[k+j] ^= t
		}
		m ^= m << uint(j>>1)
	}
}

// inverse reverses transform. The reconstructed words depend only on the
// low 32 bits of each delta, so the sign plane serves only to undo DBX.
func inverse(base uint32, dbx [planes]uint64) [words]uint32 {
	var rows [32]uint32
	dbp := dbx[planes-1]
	for p := planes - 2; p >= 0; p-- {
		dbp ^= dbx[p]
		rows[p] = uint32(dbp)
	}
	transpose32(&rows)
	var w [words]uint32
	w[0] = base
	for i := 0; i < deltas; i++ {
		w[i+1] = w[i] + rows[i]
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

// encodePlanes codes one plane (or a zero run) starting at dbx[i] and
// returns how many planes it consumed and how many bits its code takes. With
// w == nil only the size is accounted; otherwise the code is written. Both
// paths share the walk, so SyncBlock always agrees with Compress.
//
//slclint:allocfree
func encodePlanes(w *compress.BitWriter, dbx []uint64, i int) (n, size int) {
	p := dbx[i]
	if p == 0 {
		run := 1
		for i+run < len(dbx) && dbx[i+run] == 0 && run < 33 {
			run++
		}
		if run >= 2 {
			if w != nil {
				w.WriteBits(cZeroRun, 2)
				w.WriteBits(uint64(run-2), 5)
			}
			return run, 2 + 5
		}
		if w != nil {
			w.WriteBits(cZero, 1)
		}
		return 1, 1
	}
	mask := uint64(1)<<deltas - 1
	switch ones := bits.OnesCount64(p); {
	case p == mask:
		if w != nil {
			w.WriteBits(cAllOnes, 5)
		}
		return 1, 5
	case ones == 1:
		if w != nil {
			w.WriteBits(cOneBit, 5)
			w.WriteBits(uint64(bits.TrailingZeros64(p)), 5)
		}
		return 1, 5 + 5
	case ones == 2:
		if w != nil {
			w.WriteBits(cTwoBits, 5)
			w.WriteBits(uint64(bits.TrailingZeros64(p)), 5)
			w.WriteBits(uint64(63-bits.LeadingZeros64(p)), 5)
		}
		return 1, 5 + 10
	default:
		if w != nil {
			w.WriteBits(cRaw, 5)
			w.WriteBits(p, deltas)
		}
		return 1, 5 + deltas
	}
}

// encode codes a transformed block, base word first, and returns its size in
// bits; w is as for encodePlanes.
//
//slclint:allocfree
func encode(w *compress.BitWriter, base uint32, dbx *[planes]uint64) int {
	if w != nil {
		w.WriteBits(uint64(base), 32)
	}
	size := 32
	for i := 0; i < planes; {
		n, nbits := encodePlanes(w, dbx[:], i)
		i += n
		size += nbits
	}
	return size
}

// SyncBlock implements compress.Codec; BPC is lossless.
//
//slclint:allocfree
func (Codec) SyncBlock(block []byte) (int, bool) {
	base, dbx := transform(compress.Words(block))
	return min(encode(nil, base, &dbx), compress.BlockBits), false
}

// Compress implements compress.Codec.
func (c Codec) Compress(block []byte) compress.Encoded {
	if err := compress.CheckBlock(block); err != nil {
		panic(err)
	}
	base, dbx := transform(compress.Words(block))
	w := compress.NewBitWriter(compress.BlockBits)
	if size := encode(w, base, &dbx); size >= compress.BlockBits {
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
