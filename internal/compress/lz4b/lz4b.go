// Package lz4b implements a byte-pair/window LZ-style lossless codec over
// one 128-byte block, in the spirit of LZ4's literal/match token stream but
// scaled down to the memory-compression setting: the window is the block
// itself, match candidates are found through a byte-pair hash chain, and the
// output is a real bitstream bounded by the uncompressed block size (a block
// whose token stream would reach 1024 bits is stored raw, exactly like the
// FPC and C-PACK fallbacks).
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

// pairHash maps a byte pair to a hash-chain head slot, mixing both bytes so
// the 256 chains spread real pairs rather than keying on one byte. A
// colliding candidate costs only a failed probe — findMatch byte-compares
// every candidate — so the hash affects probe count, never output.
func pairHash(a, b byte) int { return (int(a)*131 ^ int(b)) & (pairTableSize - 1) }

const pairTableSize = 1 << 8 // 256 chain heads: cheap, collisions only cost probes

// findMatch returns the longest match for block[pos:] starting strictly
// before pos, using the byte-pair chains in head/prev. A returned length of
// zero means no match of at least MinMatch exists. Ties prefer the most
// recent (smallest-offset) candidate, which the chain order yields for free.
func findMatch(block []byte, pos int, head []int, prev []int) (matchPos, matchLen int) {
	if pos+MinMatch > len(block) {
		return 0, 0
	}
	limit := len(block) - pos
	if limit > MaxMatch {
		limit = MaxMatch
	}
	for cand := head[pairHash(block[pos], block[pos+1])]; cand >= 0; cand = prev[cand] {
		if cand >= pos {
			continue // a slot written for this very position
		}
		n := 0
		for n < limit && block[cand+n] == block[pos+n] {
			n++
		}
		if n > matchLen {
			matchPos, matchLen = cand, n
			if n == limit {
				break
			}
		}
	}
	if matchLen < MinMatch {
		return 0, 0
	}
	return matchPos, matchLen
}

// encode runs the greedy parse once. With w == nil only the size is
// accounted; otherwise the token stream is emitted. Both paths share the
// parse, so SyncBlock always agrees with Compress.
func encode(block []byte, w *compress.BitWriter) int {
	// Chain state stays off the heap: both sizes are compile-time constants
	// and encode runs once per block on the Sync hot path.
	var head [pairTableSize]int
	for i := range head {
		head[i] = -1
	}
	var prevBuf [compress.BlockSize]int
	prev := prevBuf[:len(block)]
	insert := func(pos int) {
		if pos+1 >= len(block) {
			return
		}
		h := pairHash(block[pos], block[pos+1])
		prev[pos] = head[h]
		head[h] = pos
	}

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
		mpos, mlen := findMatch(block, pos, head[:], prev)
		if mlen == 0 {
			insert(pos)
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
		for i := 0; i < mlen; i++ {
			insert(pos + i)
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
