package e2mc

import (
	"fmt"

	"repro/internal/compress"
)

// Codebook is a static canonical Huffman code over a small fixed alphabet,
// built once from explicit weights rather than trained per workload. It
// reuses the package-merge length limiter and the canonical assignment that
// back the trained Table, plus the same LUT decode fast path, for codecs
// whose symbol distribution is known a priori — the sz quantization codes
// are the first client. Unlike Table there is no escape code: every item in
// [0, n) has a codeword.
type Codebook struct {
	maxLen int
	canon  *canonical
	lut    []uint32 // 1<<maxLen entries packing item<<lutSymbol | length
}

// NewCodebook builds a canonical code for len(weights) items with no
// codeword longer than maxLen bits. Weights express relative expected
// frequency; zero weights are treated as one, so every item stays
// decodable. maxLen is capped at lutMaxLen so the decode LUT always exists.
func NewCodebook(weights []uint64, maxLen int) (*Codebook, error) {
	if maxLen < 1 || maxLen > lutMaxLen {
		return nil, fmt.Errorf("e2mc: codebook maxLen %d out of [1, %d]", maxLen, lutMaxLen)
	}
	lens, err := lengthLimitedCodeLengths(weights, maxLen)
	if err != nil {
		return nil, err
	}
	canon, err := newCanonical(lens, maxLen)
	if err != nil {
		return nil, err
	}
	cb := &Codebook{maxLen: maxLen, canon: canon}
	lut := make([]uint32, 1<<uint(maxLen))
	for item, l := range canon.lens {
		entry := uint32(item)<<lutSymbol | uint32(l)
		shift := uint(maxLen) - uint(l)
		base := canon.codes[item] << shift
		for i := uint32(0); i < 1<<shift; i++ {
			lut[base|i] = entry
		}
	}
	cb.lut = lut
	return cb, nil
}

// MustCodebook is NewCodebook for package-level construction of codebooks
// with known-good parameters; it panics on error.
func MustCodebook(weights []uint64, maxLen int) *Codebook {
	cb, err := NewCodebook(weights, maxLen)
	if err != nil {
		panic(err)
	}
	return cb
}

// Bits returns the codeword length of item in bits.
func (cb *Codebook) Bits(item int) int { return int(cb.canon.lens[item]) }

// Encode appends item's codeword to the bit stream.
func (cb *Codebook) Encode(w *compress.BitWriter, item int) {
	w.WriteBits(uint64(cb.canon.codes[item]), int(cb.canon.lens[item]))
}

// Decode reads one codeword from r and returns its item. It uses the
// unchecked peek/skip fast path: a truncated stream decodes to arbitrary
// items and must be caught by the caller's single r.Overrun() check after
// the decode run, matching the Table decode idiom. ok is false only for a
// window that is no codeword's prefix, which cannot happen for a complete
// (Kraft-tight) book but guards incomplete ones.
func (cb *Codebook) Decode(r *compress.BitReader) (item int, ok bool) {
	entry := cb.lut[r.PeekBits(cb.maxLen)]
	l := entry & lutLenMask
	if l == 0 {
		return 0, false
	}
	r.SkipBits(int(l))
	return int(entry >> lutSymbol), true
}
