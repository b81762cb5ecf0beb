package e2mc

import (
	"fmt"

	"repro/internal/compress"
)

// Latency of the E2MC pipeline in memory-controller cycles (paper §IV-A):
// 46 cycles to compress and 20 to decompress one block.
const (
	CompressCycles   = 46
	DecompressCycles = 20
)

// PDWs is the number of parallel decoding ways. The block's 64 symbols are
// split into 4 independently decodable groups of 16 so the decompressor can
// decode 4 symbols per cycle; the paper uses 4 PDWs as E2MC's best
// configuration.
const PDWs = 4

// SymbolsPerWay is the number of symbols each way encodes.
const SymbolsPerWay = compress.SymbolsPerBlock / PDWs

// HeaderBits is the E2MC per-block header: 3 parallel decoding pointers of 7
// bits (2^7 = 128-byte block), padded to a whole byte so ways stay
// byte-aligned. Uncompressed blocks carry no header.
const HeaderBits = 24

const pdpBits = 7

// Codec is the E2MC compressor/decompressor around a trained Table.
type Codec struct {
	tab *Table
}

// New returns a codec using the given trained table.
func New(tab *Table) *Codec { return &Codec{tab: tab} }

// Table returns the codec's entropy table (SLC shares it).
func (c *Codec) Table() *Table { return c.tab }

// Name implements compress.Codec.
func (c *Codec) Name() string { return "E2MC" }

// waySpan returns the symbol index range [lo, hi) of one way.
func waySpan(way int) (int, int) {
	return way * SymbolsPerWay, (way + 1) * SymbolsPerWay
}

// EncodeWays entropy-codes the block's symbols into PDWs byte-aligned
// bitstreams, omitting symbols in [skipStart, skipStart+skipLen) — the span
// SLC truncates (skipLen 0 encodes everything). It returns the way payloads
// and their sizes in bits before byte padding.
func (t *Table) EncodeWays(syms [compress.SymbolsPerBlock]uint16, skipStart, skipLen int) (ways [PDWs][]byte, wayBits [PDWs]int) {
	for wy := 0; wy < PDWs; wy++ {
		lo, hi := waySpan(wy)
		w := compress.NewBitWriter(SymbolsPerWay * 8)
		for i := lo; i < hi; i++ {
			if i >= skipStart && i < skipStart+skipLen {
				continue
			}
			t.encodeSymbol(w, syms[i])
		}
		wayBits[wy] = w.Len()
		w.AlignByte()
		ways[wy] = w.Bytes()
	}
	return ways, wayBits
}

// decodeSpan LUT-decodes the symbols with absolute index [lo, hi) from r
// (already positioned at the first of them), skipping the SLC truncation
// span. The hot loop peeks a maxLen-bit window, looks the codeword up, and
// skips its length — no interface dispatch and no per-symbol error check:
// reads past the end of the stream yield zero bits, and the single Overrun
// check afterwards errors exactly when the bit-by-bit reference decoder
// would (a symbol that consumed a fabricated bit pushes the position past
// the end, and the position never moves back).
//
//slclint:allocfree
func (t *Table) decodeSpan(r *compress.BitReader, lo, hi, skipStart, skipLen int, syms *[compress.SymbolsPerBlock]uint16) error {
	maxLen := t.maxLen
	lut := t.lut
	for i := lo; i < hi; i++ {
		if i >= skipStart && i < skipStart+skipLen {
			continue
		}
		e := lut[r.PeekBits(maxLen)]
		n := int(e & lutLenMask)
		if n == 0 {
			return fmt.Errorf("e2mc: symbol %d: invalid codeword", i) //slclint:allow allocfree cold error path, never hit by the alloc pin
		}
		r.SkipBits(n)
		if e&lutEscape != 0 {
			syms[i] = uint16(r.PeekBits(escapeRawBits))
			r.SkipBits(escapeRawBits)
		} else {
			syms[i] = uint16(e >> lutSymbol)
		}
	}
	if r.Overrun() {
		return fmt.Errorf("e2mc: symbols [%d, %d): bitstream exhausted", lo, hi) //slclint:allow allocfree cold error path, never hit by the alloc pin
	}
	return nil
}

// DecodeWays reverses EncodeWays through the LUT. wayStart holds the
// absolute byte offset of each way within payload; symbols inside the skip
// span are left as zero for the caller (SLC) to fill by prediction.
//
//slclint:allocfree
func (t *Table) DecodeWays(payload []byte, wayStart [PDWs]int, skipStart, skipLen int) ([compress.SymbolsPerBlock]uint16, error) {
	var syms [compress.SymbolsPerBlock]uint16
	var r compress.BitReader
	for wy := 0; wy < PDWs; wy++ {
		if wayStart[wy] < 0 || wayStart[wy] > len(payload) {
			return syms, fmt.Errorf("e2mc: way %d starts at byte %d outside payload (%d bytes)", wy, wayStart[wy], len(payload)) //slclint:allow allocfree cold error path, never hit by the alloc pin
		}
		r.Reset(payload[wayStart[wy]:])
		lo, hi := waySpan(wy)
		if err := t.decodeSpan(&r, lo, hi, skipStart, skipLen, &syms); err != nil {
			return syms, fmt.Errorf("e2mc: way %d: %w", wy, err) //slclint:allow allocfree cold error path, never hit by the alloc pin
		}
	}
	return syms, nil
}

// DecodeWaysRef is the retained bit-by-bit reference decoder. No codec calls
// it: it exists so TestDecodeWaysLUTMatchesReference and FuzzDecodeLUT can
// require DecodeWays to produce bitwise-identical output (and to error
// whenever it errors).
func (t *Table) DecodeWaysRef(payload []byte, wayStart [PDWs]int, skipStart, skipLen int) ([compress.SymbolsPerBlock]uint16, error) {
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

// payloadBytes returns the byte size of the encoded ways after the header.
//
//slclint:allocfree
func payloadBytes(wayBits [PDWs]int) int {
	n := 0
	for _, b := range wayBits {
		n += (b + 7) / 8
	}
	return n
}

// SyncBlock implements compress.Codec: header plus byte-padded ways, capped
// at the uncompressed size; E2MC is lossless. This mirrors the hardware fast
// path that sums the per-symbol code lengths before compressing (paper
// §III-C).
//
//slclint:allocfree
func (c *Codec) SyncBlock(block []byte) (int, bool) {
	syms := compress.Symbols(block)
	var wayBits [PDWs]int
	for wy := 0; wy < PDWs; wy++ {
		lo, hi := waySpan(wy)
		for i := lo; i < hi; i++ {
			wayBits[wy] += c.tab.SymbolBits(syms[i])
		}
	}
	return min(HeaderBits+payloadBytes(wayBits)*8, compress.BlockBits), false
}

// Compress implements compress.Codec. Blocks that do not compress below the
// uncompressed size are stored raw with no header.
func (c *Codec) Compress(block []byte) compress.Encoded {
	if err := compress.CheckBlock(block); err != nil {
		panic(err)
	}
	syms := compress.Symbols(block)
	ways, wayBits := c.tab.EncodeWays(syms, 0, 0)
	total := HeaderBits/8 + payloadBytes(wayBits)
	if total*8 >= compress.BlockBits {
		p := make([]byte, compress.BlockSize)
		copy(p, block)
		return compress.Encoded{Bits: compress.BlockBits, Payload: p}
	}
	w := compress.NewBitWriter(total * 8)
	off := HeaderBits / 8
	var starts [PDWs]int
	for wy := 0; wy < PDWs; wy++ {
		starts[wy] = off
		off += len(ways[wy])
	}
	for wy := 1; wy < PDWs; wy++ {
		w.WriteBits(uint64(starts[wy]), pdpBits)
	}
	w.AlignByte()
	buf := w.Bytes()
	for wy := 0; wy < PDWs; wy++ {
		buf = append(buf, ways[wy]...)
	}
	return compress.Encoded{Bits: total * 8, Payload: buf}
}

// parseHeader reads the parallel decoding pointers of a compressed block.
// raw reports a block stored uncompressed (no header to parse).
func parseHeader(e compress.Encoded) (starts [PDWs]int, raw bool, err error) {
	if e.Bits >= compress.BlockBits {
		return starts, true, nil
	}
	r := compress.NewBitReader(e.Payload)
	starts[0] = HeaderBits / 8
	for wy := 1; wy < PDWs; wy++ {
		v, rerr := r.ReadBits(pdpBits)
		if rerr != nil {
			return starts, false, fmt.Errorf("e2mc: header: %w", rerr)
		}
		starts[wy] = int(v)
	}
	return starts, false, nil
}

// Decompress implements compress.Codec.
func (c *Codec) Decompress(e compress.Encoded, dst []byte) error {
	if len(dst) < compress.BlockSize {
		return fmt.Errorf("e2mc: dst too small (%d bytes)", len(dst))
	}
	starts, raw, err := parseHeader(e)
	if err != nil {
		return err
	}
	if raw {
		if len(e.Payload) < compress.BlockSize {
			return fmt.Errorf("e2mc: raw payload too short")
		}
		copy(dst, e.Payload[:compress.BlockSize])
		return nil
	}
	syms, err := c.tab.DecodeWays(e.Payload, starts, 0, 0)
	if err != nil {
		return err
	}
	compress.PutSymbols(dst, syms)
	return nil
}
