// Package hycomp implements a HyComp-style hybrid compressor (Arelakis et
// al., MICRO 2015): it predicts each block's dominant data type from cheap
// bit-pattern heuristics and dispatches to the method that suits it —
// entropy coding for floating-point data (standing in for FP-H/SC², both
// Huffman-based like E2MC), base-delta for pointer-like data, and
// significance-based FPC for integers. The SLC paper argues (§II-A) that
// HyComp inherits the MAG problem from its constituent methods; this
// implementation lets the Figure 1 extension measure that.
package hycomp

import (
	"encoding/binary"
	"fmt"

	"repro/internal/compress"
	"repro/internal/compress/bdi"
	"repro/internal/compress/e2mc"
	"repro/internal/compress/fpc"
)

// method tags stored in the 2-bit block header.
const (
	tagEntropy = 0 // floats → Huffman (FP-H/SC² stand-in)
	tagBDI     = 1 // pointers → base-delta
	tagFPC     = 2 // integers → significance-based
	tagRaw     = 3
)

const headerBits = 2

// Codec is the hybrid compressor. It needs the trained entropy table for
// its floating-point path.
type Codec struct {
	ent *e2mc.Codec
	bdi bdi.Codec
	fpc fpc.Codec
}

// New returns a hybrid codec around a trained table.
func New(tab *e2mc.Table) *Codec {
	return &Codec{ent: e2mc.New(tab)}
}

// Name implements compress.Codec.
func (c *Codec) Name() string { return "HYCOMP" }

// classify predicts the block's dominant type with HyComp-style heuristics:
// pointers share their top bytes as 64-bit elements, floats from one array
// share sign+exponent bytes, everything else is treated as integer data.
func classify(block []byte) int {
	// Pointer heuristic: 64-bit elements whose top 4 bytes cluster on a
	// non-zero base.
	top := map[uint32]struct{}{}
	allZeroTop := true
	for i := 0; i < compress.BlockSize; i += 8 {
		t := uint32(binary.LittleEndian.Uint64(block[i:]) >> 32)
		top[t] = struct{}{}
		if t != 0 {
			allZeroTop = false
		}
	}
	if len(top) <= 2 && !allZeroTop {
		return tagBDI
	}
	// Float heuristic: few distinct sign+exponent bytes across the 32-bit
	// words.
	hi := map[byte]struct{}{}
	for _, w := range compress.Words(block) {
		hi[byte(w>>24)] = struct{}{}
	}
	if len(hi) <= 6 {
		return tagEntropy
	}
	return tagFPC
}

// SyncBlock implements compress.Codec; HyComp is lossless.
func (c *Codec) SyncBlock(block []byte) (int, bool) {
	return c.Compress(block).Bits, false
}

// Compress implements compress.Codec: classify, dispatch, tag.
func (c *Codec) Compress(block []byte) compress.Encoded {
	if err := compress.CheckBlock(block); err != nil {
		panic(err)
	}
	tag := classify(block)
	var inner compress.Encoded
	switch tag {
	case tagBDI:
		inner = c.bdi.Compress(block)
	case tagFPC:
		inner = c.fpc.Compress(block)
	default:
		inner = c.ent.Compress(block)
	}
	// The stored header is byte-aligned (8 bits) so the inner payload stays
	// byte-aligned for re-decoding.
	if inner.Bits+8 >= compress.BlockBits {
		p := make([]byte, compress.BlockSize)
		copy(p, block)
		return compress.Encoded{Bits: compress.BlockBits, Payload: p}
	}
	w := compress.NewBitWriter(inner.Bits + headerBits)
	w.WriteBits(uint64(tag), headerBits)
	w.AlignByte() // keep the inner payload byte-aligned for re-decoding
	buf := append(w.Bytes(), inner.Payload...)
	return compress.Encoded{Bits: 8 + inner.Bits, Payload: buf}
}

// Decompress implements compress.Codec.
func (c *Codec) Decompress(e compress.Encoded, dst []byte) error {
	if len(dst) < compress.BlockSize {
		return fmt.Errorf("hycomp: dst too small (%d bytes)", len(dst))
	}
	if e.Bits >= compress.BlockBits {
		if len(e.Payload) < compress.BlockSize {
			return fmt.Errorf("hycomp: raw payload too short")
		}
		copy(dst, e.Payload[:compress.BlockSize])
		return nil
	}
	if len(e.Payload) < 1 {
		return fmt.Errorf("hycomp: missing header")
	}
	tag := int(e.Payload[0] >> 6)
	inner := compress.Encoded{Bits: e.Bits - 8, Payload: e.Payload[1:]}
	switch tag {
	case tagBDI:
		return c.bdi.Decompress(inner, dst)
	case tagFPC:
		return c.fpc.Decompress(inner, dst)
	case tagEntropy:
		return c.ent.Decompress(inner, dst)
	}
	return fmt.Errorf("hycomp: unknown method tag %d", tag)
}
