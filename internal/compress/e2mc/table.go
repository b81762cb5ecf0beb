// Package e2mc implements E2MC (Lal et al., IPDPS 2017), the entropy-
// encoding based memory compression technique for GPUs that the SLC paper
// uses as its lossless baseline and extends: length-limited canonical
// Huffman codes over 16-bit symbols, a small frequent-symbol table with
// escape coding for the rest, four parallel decoding ways with header
// pointers, and an online-sampling training phase. SC² (Arelakis et al.,
// ISCA 2014) is the CPU-side sibling of the same design; the paper treats
// the two as equivalent for the MAG analysis.
//
// The four ways are the only decode parallelism the package models: every
// block decodes through one LUT path (DecodeWays). The bit-by-bit reference
// decoder lives in the tests (ref_test.go) as the LUT path's oracle.
package e2mc

import (
	"fmt"
	"sort"

	"repro/internal/compress"
)

// Default table parameters. E2MC keeps the most probable symbols in a small
// hardware table and escape-codes the rest; bounding the codeword length
// keeps the per-symbol cost (and the TSLC adder widths) small.
const (
	DefaultMaxSymbols = 1024 // frequent-symbol table entries, incl. escape
	DefaultMaxCodeLen = 15   // bits; escape cost ≤ 15+16 = 31 bits
	escapeRawBits     = 16   // raw symbol bits following an escape code
)

// LUT decode parameters. The decode lookup table maps every possible
// maxLen-bit window to the (symbol, code length) pair of the codeword that
// prefixes it, so the hot loop is peek/lookup/skip with no per-bit work. A
// lut entry packs sym<<16 | escapeFlag | codeLen; entry 0 (code length 0)
// marks a bit pattern no codeword prefixes.
const (
	lutMaxLen  = 16     // largest maxLen a table or codebook accepts (64K LUT entries)
	lutLenMask = 0x7f   // code length bits of a lut entry
	lutEscape  = 1 << 7 // set when the codeword is the escape code
	lutSymbol  = 16     // shift of the decoded symbol value
)

// Trainer accumulates 16-bit symbol statistics from sampled blocks, standing
// in for E2MC's online sampling phase (the paper samples 20 M instructions).
type Trainer struct {
	freq []uint64 // indexed by symbol value
}

// NewTrainer returns an empty trainer.
func NewTrainer() *Trainer {
	return &Trainer{freq: make([]uint64, 1<<16)}
}

// Sample accumulates the 64 symbols of one block.
func (t *Trainer) Sample(block []byte) {
	for _, s := range compress.Symbols(block) {
		t.freq[s]++
	}
}

// Build constructs the Huffman table from the sampled statistics. maxSymbols
// (including the escape entry) and maxLen bound the table size and codeword
// length; zero values select the defaults. maxLen is capped at lutMaxLen so
// the decode LUT always exists.
func (t *Trainer) Build(maxSymbols, maxLen int) (*Table, error) {
	if maxSymbols == 0 {
		maxSymbols = DefaultMaxSymbols
	}
	if maxLen == 0 {
		maxLen = DefaultMaxCodeLen
	}
	if maxLen < 1 || maxLen > lutMaxLen {
		return nil, fmt.Errorf("e2mc: table maxLen %d out of [1, %d]", maxLen, lutMaxLen)
	}
	if maxSymbols < 2 {
		return nil, fmt.Errorf("e2mc: need at least 2 table entries, got %d", maxSymbols)
	}

	// Rank symbols by frequency; keep the top maxSymbols-1.
	type sf struct {
		sym  uint16
		freq uint64
	}
	var ranked []sf
	for s, f := range t.freq {
		if f > 0 {
			ranked = append(ranked, sf{uint16(s), f})
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].freq != ranked[j].freq {
			return ranked[i].freq > ranked[j].freq
		}
		return ranked[i].sym < ranked[j].sym
	})
	keep := maxSymbols - 1
	if keep > len(ranked) {
		keep = len(ranked)
	}
	var escWeight uint64
	for _, r := range ranked[keep:] {
		escWeight += r.freq
	}
	if escWeight == 0 {
		escWeight = 1 // escape must remain encodable
	}

	// Item indices: 0..keep-1 are frequent symbols, item keep is escape.
	weights := make([]uint64, keep+1)
	syms := make([]uint16, keep)
	for i := 0; i < keep; i++ {
		weights[i] = ranked[i].freq
		syms[i] = ranked[i].sym
	}
	weights[keep] = escWeight

	lens, err := lengthLimitedCodeLengths(weights, maxLen)
	if err != nil {
		return nil, err
	}
	canon, err := newCanonical(lens, maxLen)
	if err != nil {
		return nil, err
	}

	tab := &Table{
		maxLen:  maxLen,
		canon:   canon,
		syms:    syms,
		escItem: int32(keep),
		lenOf:   make([]uint8, 1<<16),
		itemOf:  make([]int32, 1<<16),
	}
	for i := range tab.itemOf {
		tab.itemOf[i] = -1
	}
	for i, s := range syms {
		tab.itemOf[s] = int32(i)
		tab.lenOf[s] = lens[i]
	}
	tab.escLen = lens[keep]
	tab.buildLUT()
	return tab, nil
}

// Table is a trained E2MC entropy-coding table: canonical length-limited
// Huffman codes for the frequent symbols plus an escape code for the rest.
type Table struct {
	maxLen  int
	canon   *canonical
	syms    []uint16 // item index → symbol value
	escItem int32
	escLen  uint8
	lenOf   []uint8  // symbol value → code length (0 if escaped)
	itemOf  []int32  // symbol value → item index (-1 if escaped)
	lut     []uint32 // 1<<maxLen decode entries
}

// buildLUT fills the decode lookup table: for each codeword, every maxLen-bit
// window it prefixes maps to its packed (symbol, length) entry.
func (t *Table) buildLUT() {
	lut := make([]uint32, 1<<uint(t.maxLen))
	for item, l := range t.canon.lens {
		if l == 0 {
			continue
		}
		var entry uint32
		if int32(item) == t.escItem {
			entry = lutEscape | uint32(l)
		} else {
			entry = uint32(t.syms[item])<<lutSymbol | uint32(l)
		}
		shift := uint(t.maxLen) - uint(l)
		base := t.canon.codes[item] << shift
		for i := uint32(0); i < 1<<shift; i++ {
			lut[base|i] = entry
		}
	}
	t.lut = lut
}

// SymbolBits returns the encoded cost of one symbol in bits: its codeword
// length, or the escape length plus 16 raw bits. This is the per-symbol code
// length the TSLC adder tree sums.
func (t *Table) SymbolBits(sym uint16) int {
	if it := t.itemOf[sym]; it >= 0 {
		return int(t.lenOf[sym])
	}
	return int(t.escLen) + escapeRawBits
}

// encodeSymbol appends one symbol's codeword (or escape + raw bits).
func (t *Table) encodeSymbol(w *compress.BitWriter, sym uint16) {
	if it := t.itemOf[sym]; it >= 0 {
		w.WriteBits(uint64(t.canon.codes[it]), int(t.lenOf[sym]))
		return
	}
	w.WriteBits(uint64(t.canon.codes[t.escItem]), int(t.escLen))
	w.WriteBits(uint64(sym), escapeRawBits)
}

// codeLengths exposes the per-item lengths for tests (Kraft checks).
func (t *Table) codeLengths() []uint8 { return t.canon.lens }
