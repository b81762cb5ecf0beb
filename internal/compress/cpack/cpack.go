// Package cpack implements C-PACK (Chen et al., IEEE TVLSI 2010), a
// dictionary-based cache/memory compression algorithm and one of the four
// lossless baselines of the SLC paper's Figure 1.
//
// Each 32-bit word is encoded against a 16-entry FIFO dictionary using the
// pattern set of the original paper: zzzz (zero word), xxxx (uncompressed),
// mmmm (full dictionary match), mmxx (upper-halfword match), zzzx (three
// zero bytes + literal byte), and mmmx (three-byte match). Words that do not
// fully match are pushed into the dictionary; compressor and decompressor
// rebuild identical dictionary state.
package cpack

import (
	"fmt"

	"repro/internal/compress"
)

const dictEntries = 16

// Pattern codes and widths (code + index/literal payload), from the C-PACK
// paper's Table I.
const (
	codeZZZZ = 0b00   // 2 bits
	codeXXXX = 0b01   // 2 + 32
	codeMMMM = 0b10   // 2 + 4
	codeMMXX = 0b1100 // 4 + 4 + 16
	codeZZZX = 0b1101 // 4 + 8
	codeMMMX = 0b1110 // 4 + 4 + 8
)

// Codec is the C-PACK compressor/decompressor. The zero value is ready to
// use; each Compress/Decompress call starts from an empty dictionary, as the
// hardware resets per block.
type Codec struct{}

// Name implements compress.Codec.
func (Codec) Name() string { return "CPACK" }

type dict struct {
	entries [dictEntries]uint32
	n       int // number of valid entries
	next    int // FIFO replacement cursor
}

func (d *dict) push(w uint32) {
	d.entries[d.next] = w
	d.next = (d.next + 1) % dictEntries
	if d.n < dictEntries {
		d.n++
	}
}

// match looks for the best dictionary match for w. kind is 4 (full), 3
// (upper three bytes), 2 (upper halfword) or 0 (none).
func (d *dict) match(w uint32) (idx, kind int) {
	bestKind := 0
	bestIdx := 0
	for i := 0; i < d.n; i++ {
		e := d.entries[i]
		switch {
		case e == w:
			return i, 4 // full match wins immediately
		case e&0xFFFFFF00 == w&0xFFFFFF00 && bestKind < 3:
			bestKind, bestIdx = 3, i
		case e&0xFFFF0000 == w&0xFFFF0000 && bestKind < 2:
			bestKind, bestIdx = 2, i
		}
	}
	return bestIdx, bestKind
}

// encodeWord appends the encoding of one word and updates the dictionary.
// When w is nil only the size is accounted.
func encodeWord(word uint32, d *dict, w *compress.BitWriter) int {
	if word == 0 {
		if w != nil {
			w.WriteBits(codeZZZZ, 2)
		}
		return 2
	}
	if word&0xFFFFFF00 == 0 {
		if w != nil {
			w.WriteBits(codeZZZX, 4)
			w.WriteBits(uint64(word&0xFF), 8)
		}
		return 12
	}
	idx, kind := d.match(word)
	switch kind {
	case 4:
		if w != nil {
			w.WriteBits(codeMMMM, 2)
			w.WriteBits(uint64(idx), 4)
		}
		return 6
	case 3:
		if w != nil {
			w.WriteBits(codeMMMX, 4)
			w.WriteBits(uint64(idx), 4)
			w.WriteBits(uint64(word&0xFF), 8)
		}
		d.push(word)
		return 16
	case 2:
		if w != nil {
			w.WriteBits(codeMMXX, 4)
			w.WriteBits(uint64(idx), 4)
			w.WriteBits(uint64(word&0xFFFF), 16)
		}
		d.push(word)
		return 24
	default:
		if w != nil {
			w.WriteBits(codeXXXX, 2)
			w.WriteBits(uint64(word), 32)
		}
		d.push(word)
		return 34
	}
}

// SyncBlock implements compress.Codec; C-PACK is lossless.
func (Codec) SyncBlock(block []byte) (int, bool) {
	words := compress.Words(block)
	var d dict
	bits := 0
	for _, word := range words {
		bits += encodeWord(word, &d, nil)
	}
	return min(bits, compress.BlockBits), false
}

// Compress implements compress.Codec.
func (c Codec) Compress(block []byte) compress.Encoded {
	if err := compress.CheckBlock(block); err != nil {
		panic(err)
	}
	words := compress.Words(block)
	var d dict
	w := compress.NewBitWriter(compress.BlockBits)
	for _, word := range words {
		encodeWord(word, &d, w)
	}
	// Inclusive boundary: Decompress reads any BlockBits-sized encoding as
	// a raw payload, so an exactly 1024-bit stream must be stored raw.
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
		return fmt.Errorf("cpack: dst too small (%d bytes)", len(dst))
	}
	if e.Bits >= compress.BlockBits {
		if len(e.Payload) < compress.BlockSize {
			return fmt.Errorf("cpack: raw payload too short")
		}
		copy(dst, e.Payload[:compress.BlockSize])
		return nil
	}
	r := compress.NewBitReader(e.Payload)
	var d dict
	var words [compress.WordsPerBlock]uint32
	for i := range words {
		c2, err := r.ReadBits(2)
		if err != nil {
			return fmt.Errorf("cpack: code at word %d: %w", i, err)
		}
		switch c2 {
		case codeZZZZ:
			words[i] = 0
		case codeXXXX:
			v, err := r.ReadBits(32)
			if err != nil {
				return fmt.Errorf("cpack: literal at word %d: %w", i, err)
			}
			words[i] = uint32(v)
			d.push(words[i])
		case codeMMMM:
			idx, err := r.ReadBits(4)
			if err != nil {
				return fmt.Errorf("cpack: index at word %d: %w", i, err)
			}
			if int(idx) >= d.n {
				return fmt.Errorf("cpack: dictionary index %d out of range (%d entries)", idx, d.n)
			}
			words[i] = d.entries[idx]
		case 0b11: // extended 4-bit code
			b2, err := r.ReadBits(2)
			if err != nil {
				return fmt.Errorf("cpack: extended code at word %d: %w", i, err)
			}
			switch code := c2<<2 | b2; code {
			case codeMMXX:
				idx, err := r.ReadBits(4)
				if err != nil {
					return fmt.Errorf("cpack: mmxx index: %w", err)
				}
				lo, err := r.ReadBits(16)
				if err != nil {
					return fmt.Errorf("cpack: mmxx literal: %w", err)
				}
				if int(idx) >= d.n {
					return fmt.Errorf("cpack: dictionary index %d out of range", idx)
				}
				words[i] = d.entries[idx]&0xFFFF0000 | uint32(lo)
				d.push(words[i])
			case codeZZZX:
				b, err := r.ReadBits(8)
				if err != nil {
					return fmt.Errorf("cpack: zzzx literal: %w", err)
				}
				words[i] = uint32(b)
			case codeMMMX:
				idx, err := r.ReadBits(4)
				if err != nil {
					return fmt.Errorf("cpack: mmmx index: %w", err)
				}
				b, err := r.ReadBits(8)
				if err != nil {
					return fmt.Errorf("cpack: mmmx literal: %w", err)
				}
				if int(idx) >= d.n {
					return fmt.Errorf("cpack: dictionary index %d out of range", idx)
				}
				words[i] = d.entries[idx]&0xFFFFFF00 | uint32(b)
				d.push(words[i])
			default:
				return fmt.Errorf("cpack: unknown code %04b", code)
			}
		}
	}
	compress.PutWords(dst, words)
	return nil
}
