package e2mc

import (
	"fmt"

	"repro/internal/compress"
)

// The reference decoder. No codec decodes bit by bit: every block goes
// through the LUT path (DecodeWays), and this slower walk over the same
// canonical code is the oracle the LUT tests and fuzz target compare it with.

// decodeWaysRef is the bit-by-bit reference decoder: the oracle that lets
// TestDecodeWaysLUTMatchesReference and FuzzDecodeLUT require DecodeWays to
// produce bitwise-identical output (and to error whenever it errors).
func (t *Table) decodeWaysRef(payload []byte, wayStart [PDWs]int, skipStart, skipLen int) ([compress.SymbolsPerBlock]uint16, error) {
	var syms [compress.SymbolsPerBlock]uint16
	for wy := 0; wy < PDWs; wy++ {
		if wayStart[wy] < 0 || wayStart[wy] > len(payload) {
			return syms, fmt.Errorf("e2mc: way %d starts at byte %d outside payload (%d bytes)", wy, wayStart[wy], len(payload))
		}
		r := compress.NewBitReader(payload[wayStart[wy]:])
		lo, hi := waySpan(wy)
		for i := lo; i < hi; i++ {
			if i >= skipStart && i < skipStart+skipLen {
				continue
			}
			s, err := t.decodeSymbol(r)
			if err != nil {
				return syms, fmt.Errorf("e2mc: way %d symbol %d: %w", wy, i, err)
			}
			syms[i] = s
		}
	}
	return syms, nil
}

// decodeSymbol reads one symbol through the bit-by-bit reference path that
// decodeWaysRef walks.
func (t *Table) decodeSymbol(r *compress.BitReader) (uint16, error) {
	item, err := t.canon.decode(r)
	if err != nil {
		return 0, err
	}
	if item == t.escItem {
		raw, err := r.ReadBits(escapeRawBits)
		if err != nil {
			return 0, err
		}
		return uint16(raw), nil
	}
	return t.syms[item], nil
}

// decode reads one canonical codeword from r and returns the item, walking
// the stream one bit at a time through the interface-typed reader. It is the
// reference behind decodeWaysRef: the LUT fast path (table.go) must stay
// bitwise-equivalent to it.
func (c *canonical) decode(r interface{ ReadBits(int) (uint64, error) }) (int32, error) {
	code := uint32(0)
	for l := 1; l <= c.maxLen; l++ {
		b, err := r.ReadBits(1)
		if err != nil {
			return 0, err
		}
		code = code<<1 | uint32(b)
		if c.count[l] > 0 && code-c.firstCode[l] < uint32(c.count[l]) {
			return c.ordered[c.firstIdx[l]+int(code-c.firstCode[l])], nil
		}
	}
	return 0, fmt.Errorf("e2mc: invalid codeword")
}
