// Package lz4b implements a window LZ-style lossless codec over one
// 128-byte block, in the spirit of LZ4's literal/match token stream but
// scaled down to the memory-compression setting: the window is the block
// itself, match candidates are found through a 3-byte-prefix hash chain,
// and the output is a real bitstream bounded by the uncompressed block size
// (a block whose token stream would reach 1024 bits is stored raw, exactly
// like the FPC and C-PACK fallbacks).
//
// The token grammar, MSB-first:
//
//	0 lllll  b…           literal run: 5-bit length-1 (1..32 bytes), then
//	                      the raw bytes
//	1 ooooooo lllll       match: 7-bit offset-1 back into the already
//	                      decoded output (1..128), 5-bit length-MinMatch
//	                      (MinMatch..MinMatch+31 bytes)
//
// Matches may overlap their own output (offset < length), which gives the
// codec an RLE mode for free; decompression copies byte by byte, so the
// compressor and decompressor agree on overlapping semantics. Decoding stops
// when 128 output bytes have been reconstructed, so no explicit terminator
// is spent.
//
// FZ-GPU and other GPU compression pipelines motivate the family: a cheap
// dictionary-free match stage catches the repeated byte patterns that the
// word-pattern codecs (FPC, BDI) classify away and the entropy codecs pay a
// table for. See PAPERS.md.
package lz4b

import (
	"fmt"

	"repro/internal/compress"
)

const (
	// MinMatch is the shortest encodable match in bytes. A 2-byte match
	// costs 13 token bits against at most 22 literal bits, but breaking a
	// literal run to take one costs more than it saves on real data; 3 is
	// the classic LZ4 floor and measures best here too.
	MinMatch = 3

	// MaxMatch is the longest encodable match (MinMatch + 2^5 - 1).
	MaxMatch = MinMatch + 31

	// maxLiteralRun is the longest literal run one token carries.
	maxLiteralRun = 32

	offsetBits = 7 // block positions fit in 7 bits (128 bytes)
	lenBits    = 5
	litLenBits = 5
)

// Codec is the LZ4B compressor/decompressor. The zero value is ready to use;
// all state lives per call, as the hardware resets per block.
type Codec struct{}

// Name implements compress.Codec.
func (Codec) Name() string { return "LZ4B" }

// prefixHash maps the MinMatch-byte prefix a, b, c to a hash-chain head
// slot by multiplicative (Fibonacci) hashing. Every candidate that shares
// the prefix shares the slot, so each chain holds every position that can
// start a match of MinMatch or more; a colliding candidate costs only a
// failed probe, since findMatch byte-compares every candidate, so the hash
// affects probe count, never output.
func prefixHash(a, b, c byte) uint32 {
	return (uint32(a) | uint32(b)<<8 | uint32(c)<<16) * 2654435761 >> (32 - headBits)
}

const (
	headBits = 9 // 512 chain heads: a prefix's chain rarely holds another prefix
	noHash   = 1 << headBits
)

// chains holds the hash chains as position+1, so the zero value is empty:
// head[h] is the most recent position whose prefix hashes to h, and
// prev[p] the position before p on p's chain. Positions fit a uint8 since
// a block has BlockSize (128) of them.
type chains struct {
	head [1 << headBits]uint8
	prev [compress.BlockSize]uint8
}

// hashAt returns the chain slot of block[pos:], or noHash if fewer than
// MinMatch bytes remain, so that no match can start there.
func hashAt(block []byte, pos int) uint32 {
	if pos+MinMatch > len(block) {
		return noHash
	}
	return prefixHash(block[pos], block[pos+1], block[pos+2])
}

// insert puts pos, whose slot is h, at the head of its chain.
func (c *chains) insert(pos int, h uint32) {
	if h != noHash {
		c.prev[pos] = c.head[h]
		c.head[h] = uint8(pos + 1)
	}
}

// findMatch returns the longest match for block[pos:], whose slot is h,
// among the positions inserted so far, all of which lie before pos. A
// returned length of zero means no match of at least MinMatch exists. Ties
// prefer the most recent (smallest-offset) candidate, which the chain order
// yields for free. A candidate whose byte at the current best length
// differs cannot beat it strictly, so it is skipped without a full compare.
func (c *chains) findMatch(block []byte, pos int, h uint32) (matchPos, matchLen int) {
	if h == noHash {
		return 0, 0
	}
	limit := min(len(block)-pos, MaxMatch)
	best := MinMatch - 1
	for p := c.head[h]; p != 0; p = c.prev[p-1] {
		cand := int(p) - 1
		if block[cand+best] != block[pos+best] {
			continue
		}
		n := 0
		for n < limit && block[cand+n] == block[pos+n] {
			n++
		}
		if n > best {
			matchPos, best = cand, n
			if n == limit {
				break
			}
		}
	}
	if best < MinMatch {
		return 0, 0
	}
	return matchPos, best
}

// encode runs the greedy parse once. With w == nil only the size is
// accounted; otherwise the token stream is emitted. Both paths share the
// parse, so SyncBlock always agrees with Compress.
func encode(block []byte, w *compress.BitWriter) int {
	// Chain state stays off the heap, and is zero (empty) on entry.
	var c chains

	bits := 0
	flushLiterals := func(start, end int) {
		for start < end {
			n := end - start
			if n > maxLiteralRun {
				n = maxLiteralRun
			}
			bits += 1 + litLenBits + 8*n
			if w != nil {
				w.WriteBits(0, 1)
				w.WriteBits(uint64(n-1), litLenBits)
				for _, b := range block[start : start+n] {
					w.WriteBits(uint64(b), 8)
				}
			}
			start += n
		}
	}

	litStart := 0
	pos := 0
	for pos < len(block) {
		h := hashAt(block, pos)
		mpos, mlen := c.findMatch(block, pos, h)
		if mlen == 0 {
			c.insert(pos, h)
			pos++
			continue
		}
		flushLiterals(litStart, pos)
		bits += 1 + offsetBits + lenBits
		if w != nil {
			w.WriteBits(1, 1)
			w.WriteBits(uint64(pos-mpos-1), offsetBits)
			w.WriteBits(uint64(mlen-MinMatch), lenBits)
		}
		c.insert(pos, h)
		for i := 1; i < mlen; i++ {
			c.insert(pos+i, hashAt(block, pos+i))
		}
		pos += mlen
		litStart = pos
	}
	flushLiterals(litStart, len(block))
	return bits
}

// SyncBlock implements compress.Codec; LZ4B is lossless.
func (Codec) SyncBlock(block []byte) (int, bool) {
	return min(encode(block, nil), compress.BlockBits), false
}

// Compress implements compress.Codec.
func (c Codec) Compress(block []byte) compress.Encoded {
	if err := compress.CheckBlock(block); err != nil {
		panic(err)
	}
	w := compress.NewBitWriter(compress.BlockBits)
	bits := encode(block, w)
	// Inclusive boundary: Decompress reads any BlockBits-sized encoding as
	// a raw payload, so an exactly 1024-bit token stream must be stored raw.
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
		return fmt.Errorf("lz4b: dst too small (%d bytes)", len(dst))
	}
	if e.Bits >= compress.BlockBits {
		if len(e.Payload) < compress.BlockSize {
			return fmt.Errorf("lz4b: raw payload too short")
		}
		copy(dst, e.Payload[:compress.BlockSize])
		return nil
	}
	r := compress.NewBitReader(e.Payload)
	out := 0
	for out < compress.BlockSize {
		isMatch, err := r.ReadBool()
		if err != nil {
			return fmt.Errorf("lz4b: token flag at byte %d: %w", out, err)
		}
		if !isMatch {
			n64, err := r.ReadBits(litLenBits)
			if err != nil {
				return fmt.Errorf("lz4b: literal length at byte %d: %w", out, err)
			}
			n := int(n64) + 1
			if out+n > compress.BlockSize {
				return fmt.Errorf("lz4b: literal run of %d overflows block at byte %d", n, out)
			}
			for i := 0; i < n; i++ {
				b, err := r.ReadBits(8)
				if err != nil {
					return fmt.Errorf("lz4b: literal byte: %w", err)
				}
				dst[out] = byte(b)
				out++
			}
			continue
		}
		off64, err := r.ReadBits(offsetBits)
		if err != nil {
			return fmt.Errorf("lz4b: match offset at byte %d: %w", out, err)
		}
		len64, err := r.ReadBits(lenBits)
		if err != nil {
			return fmt.Errorf("lz4b: match length at byte %d: %w", out, err)
		}
		off := int(off64) + 1
		n := int(len64) + MinMatch
		if off > out {
			return fmt.Errorf("lz4b: match offset %d reaches before output at byte %d", off, out)
		}
		if out+n > compress.BlockSize {
			return fmt.Errorf("lz4b: match of %d overflows block at byte %d", n, out)
		}
		// Byte-by-byte so overlapping matches replicate, as in every LZ.
		for i := 0; i < n; i++ {
			dst[out] = dst[out-off]
			out++
		}
	}
	return nil
}
