// Package zcd implements zero-content dedup: a lossless codec that detects
// all-zero and single-repeated-value MAG sectors and collapses each to a
// 2-bit sector code (plus the one repeated 32-bit word where needed). The
// cuSZ+ line of work observes that zero and constant blocks dominate
// scientific data sets; zcd is the cheapest possible way to exploit that in
// a memory controller — a comparator tree per sector, no dictionary, no
// table, no entropy coding.
//
// The block is split into BlockSize/MAG sectors (the burst granularity the
// DRAM actually moves), and each sector contributes one code, MSB-first:
//
//	00          all-zero sector
//	01 w…       sector is one 32-bit word repeated (the word follows)
//	10 b…       literal sector (the MAG raw bytes follow)
//
// An all-zero 128-byte block therefore costs 2 bits per sector — 8 bits at
// 32 B MAG, always inside a single burst, so the simulator's metadata path
// (the MDC burst-count probe) is the only cost of fetching it; the
// registration's one-cycle latencies reflect that a zero/constant fill is a
// broadcast, not a decode pipeline. Blocks whose encoding would reach the
// uncompressed size are stored raw, like every other codec in the registry.
package zcd

import (
	"encoding/binary"
	"fmt"

	"repro/internal/compress"
)

// Sector codes, 2 bits each.
const (
	codeZero = 0b00
	codeRep  = 0b01
	codeLit  = 0b10
)

const codeBits = 2

// Codec is the zero-content-dedup compressor/decompressor for one MAG. Use
// New (or the registry) so the sector size is validated.
type Codec struct {
	mag compress.MAG
}

// New returns a codec splitting blocks into mag-sized sectors.
func New(mag compress.MAG) (Codec, error) {
	if !mag.Valid() {
		return Codec{}, fmt.Errorf("zcd: invalid MAG %d", int(mag))
	}
	if int(mag)%4 != 0 {
		return Codec{}, fmt.Errorf("zcd: MAG %d not a multiple of the 4-byte word", int(mag))
	}
	return Codec{mag: mag}, nil
}

// Name implements compress.Codec.
func (Codec) Name() string { return "ZCD" }

// MAG returns the sector granularity the codec runs at.
func (c Codec) MAG() compress.MAG { return c.mag }

// classify inspects one sector: all zero, one repeated 32-bit word, or
// literal content.
func classify(sector []byte) (code int, rep uint32) {
	w0 := binary.LittleEndian.Uint32(sector)
	uniform := true
	for off := 4; off < len(sector); off += 4 {
		if binary.LittleEndian.Uint32(sector[off:]) != w0 {
			uniform = false
			break
		}
	}
	if !uniform {
		return codeLit, 0
	}
	if w0 == 0 {
		return codeZero, 0
	}
	return codeRep, w0
}

// sectorBits returns the encoded size of one sector given its code.
func (c Codec) sectorBits(code int) int {
	switch code {
	case codeZero:
		return codeBits
	case codeRep:
		return codeBits + 32
	default:
		return codeBits + c.mag.Bits()
	}
}

// encode walks the block's sectors once. With w == nil only the size is
// accounted; otherwise the sector codes are emitted. Both paths share the
// walk, so SyncBlock always agrees with Compress.
func (c Codec) encode(block []byte, w *compress.BitWriter) int {
	bits := 0
	for off := 0; off < len(block); off += int(c.mag) {
		sector := block[off : off+int(c.mag)]
		code, rep := classify(sector)
		bits += c.sectorBits(code)
		if w == nil {
			continue
		}
		w.WriteBits(uint64(code), codeBits)
		switch code {
		case codeRep:
			w.WriteBits(uint64(rep), 32)
		case codeLit:
			for _, b := range sector {
				w.WriteBits(uint64(b), 8)
			}
		}
	}
	return bits
}

// SyncBlock implements compress.Codec; ZCD is lossless.
func (c Codec) SyncBlock(block []byte) (int, bool) {
	return min(c.encode(block, nil), compress.BlockBits), false
}

// Compress implements compress.Codec.
func (c Codec) Compress(block []byte) compress.Encoded {
	if err := compress.CheckBlock(block); err != nil {
		panic(err)
	}
	w := compress.NewBitWriter(compress.BlockBits)
	bits := c.encode(block, w)
	// Inclusive boundary: Decompress reads any BlockBits-sized encoding as
	// a raw payload, so an exactly 1024-bit stream must be stored raw. (All
	// literal sectors cost 2 bits over raw each, so this always fires for
	// blocks with no dedupable sector.)
	if bits >= compress.BlockBits {
		p := make([]byte, compress.BlockSize)
		copy(p, block)
		return compress.Encoded{Bits: compress.BlockBits, Payload: p}
	}
	return compress.Encoded{Bits: bits, Payload: w.Bytes()}
}

// Decompress implements compress.Codec.
func (c Codec) Decompress(e compress.Encoded, dst []byte) error {
	if len(dst) < compress.BlockSize {
		return fmt.Errorf("zcd: dst too small (%d bytes)", len(dst))
	}
	if e.Bits >= compress.BlockBits {
		if len(e.Payload) < compress.BlockSize {
			return fmt.Errorf("zcd: raw payload too short")
		}
		copy(dst, e.Payload[:compress.BlockSize])
		return nil
	}
	r := compress.NewBitReader(e.Payload)
	for off := 0; off < compress.BlockSize; off += int(c.mag) {
		sector := dst[off : off+int(c.mag)]
		code, err := r.ReadBits(codeBits)
		if err != nil {
			return fmt.Errorf("zcd: sector code at byte %d: %w", off, err)
		}
		switch code {
		case codeZero:
			for i := range sector {
				sector[i] = 0
			}
		case codeRep:
			w64, err := r.ReadBits(32)
			if err != nil {
				return fmt.Errorf("zcd: repeated word at byte %d: %w", off, err)
			}
			for i := 0; i < len(sector); i += 4 {
				binary.LittleEndian.PutUint32(sector[i:], uint32(w64))
			}
		case codeLit:
			for i := range sector {
				b, err := r.ReadBits(8)
				if err != nil {
					return fmt.Errorf("zcd: literal byte at %d: %w", off+i, err)
				}
				sector[i] = byte(b)
			}
		default:
			return fmt.Errorf("zcd: unknown sector code %02b at byte %d", code, off)
		}
	}
	return nil
}
