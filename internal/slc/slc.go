// Package slc implements Selective Lossy Compression (SLC), the contribution
// of Lal, Lucas & Juurlink (DATE 2019): a memory-access-granularity aware
// compression mode selector layered on the E2MC entropy codec.
//
// When lossless compression yields a size only a few bits above a multiple of
// the memory access granularity (MAG), a whole extra burst would be fetched
// for those bits. SLC instead approximates just enough symbols — selected by
// a parallel adder tree (TSLC) — to pull the compressed size down to the
// burst boundary, trading a small, bounded accuracy loss for one fewer burst.
package slc

import (
	"fmt"

	"repro/internal/compress"
	"repro/internal/compress/e2mc"
)

// Variant selects one of the three TSLC schemes evaluated in the paper (§V).
type Variant int

const (
	// SIMP truncates the selected symbols and decodes them as zeros.
	SIMP Variant = iota
	// PRED truncates and predicts the truncated symbols from the first
	// non-truncated symbol of the block (value-similarity prediction, §III-E).
	PRED
	// OPT is PRED plus extra adder-tree nodes at the middle levels to
	// reduce unneeded approximation (§III-F).
	OPT
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case SIMP:
		return "TSLC-SIMP"
	case PRED:
		return "TSLC-PRED"
	case OPT:
		return "TSLC-OPT"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Latency of the TSLC pipeline in memory-controller cycles (paper §IV-A):
// fetching all code lengths takes ~12 cycles, summing and selecting 2 more,
// on top of E2MC's 46-cycle compression; decompression matches E2MC.
const (
	CompressCycles   = 60
	DecompressCycles = e2mc.DecompressCycles
)

// MaxApproxSymbols bounds the approximated span; the paper observes at most
// 16 approximated symbols, which is also all the 4-bit header len field can
// express.
const MaxApproxSymbols = 16

// HeaderBits is the SLC per-block header (Figure 6): mode m (1) + start
// symbol ss (6) + length len (4) + 3 parallel decoding pointers × 7 = 32
// bits. Uncompressed blocks carry no header.
const HeaderBits = 32

const (
	ssBits  = 6
	lenBits = 4
	pdpBits = 7
)

// Config parameterises the SLC mode decision.
type Config struct {
	// MAG is the memory access granularity (default 32 B).
	MAG compress.MAG
	// ThresholdBits is the lossy threshold: the largest number of extra
	// bits the user allows to be approximated away (paper default 16 B).
	ThresholdBits int
	// Variant selects TSLC-SIMP, TSLC-PRED or TSLC-OPT.
	Variant Variant
}

// DefaultConfig is the configuration of the paper's main evaluation:
// TSLC-OPT with a 16-byte threshold at 32-byte MAG.
func DefaultConfig() Config {
	return Config{MAG: compress.MAG32, ThresholdBits: 16 * 8, Variant: OPT}
}

// Mode is the outcome of the SLC decision for one block.
type Mode int

const (
	// ModeUncompressed stores the block raw: lossless compression did not
	// beat the uncompressed size.
	ModeUncompressed Mode = iota
	// ModeLossless stores the E2MC-compressed block.
	ModeLossless
	// ModeLossy truncates a selected symbol span to reach the bit budget.
	ModeLossy
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeUncompressed:
		return "uncompressed"
	case ModeLossless:
		return "lossless"
	case ModeLossy:
		return "lossy"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Decision records the mode choice for one block; experiments use it to
// study the distribution of compressed blocks at MAG.
type Decision struct {
	Mode       Mode
	CompBits   int // lossless compressed size incl. header and way padding
	BudgetBits int // greatest multiple of MAG ≤ CompBits (clamped)
	ExtraBits  int // CompBits − BudgetBits
	StoredBits int // size actually stored after the decision
	Node       Node
}

// Codec applies SLC on top of a trained E2MC table. It implements
// compress.Codec; Compress is lossy whenever the decision selects ModeLossy.
// Every method is safe for concurrent use (the parallel pipeline fans blocks
// of one region across goroutines sharing one codec): the codec holds only
// its configuration and the read-only table.
type Codec struct {
	tab *e2mc.Table
	cfg Config
}

// New returns an SLC codec. The table must come from e2mc.Trainer; cfg.MAG
// must be valid.
func New(tab *e2mc.Table, cfg Config) (*Codec, error) {
	if !cfg.MAG.Valid() {
		return nil, fmt.Errorf("slc: invalid MAG %d", cfg.MAG)
	}
	if cfg.ThresholdBits < 0 || cfg.ThresholdBits > compress.BlockBits {
		return nil, fmt.Errorf("slc: threshold %d bits out of range", cfg.ThresholdBits)
	}
	if cfg.Variant < SIMP || cfg.Variant > OPT {
		return nil, fmt.Errorf("slc: unknown variant %d", cfg.Variant)
	}
	return &Codec{tab: tab, cfg: cfg}, nil
}

// Name implements compress.Codec.
func (c *Codec) Name() string { return c.cfg.Variant.String() }

// Config returns the codec's configuration.
func (c *Codec) Config() Config { return c.cfg }

// sizeBits converts per-way payload bits into the stored block size:
// header + byte-padded ways.
func sizeBits(wayBits [e2mc.PDWs]int) int {
	n := HeaderBits / 8
	for _, b := range wayBits {
		n += (b + 7) / 8
	}
	return n * 8
}

// wayOf returns the parallel decoding way containing the span, which by
// construction of the tree nodes never straddles a way boundary.
func wayOf(start, count int) int {
	w := start / e2mc.SymbolsPerWay
	if (start+count-1)/e2mc.SymbolsPerWay != w {
		panic(fmt.Sprintf("slc: span [%d,%d) straddles ways", start, start+count))
	}
	return w
}

// Decide runs the SLC mode decision for one block without compressing it.
func (c *Codec) Decide(block []byte) Decision {
	syms := compress.Symbols(block)
	return c.decide(&syms)
}

func (c *Codec) decide(syms *[compress.SymbolsPerBlock]uint16) Decision {
	var costs [compress.SymbolsPerBlock]int
	var wayBits [e2mc.PDWs]int
	for i, s := range syms {
		costs[i] = c.tab.SymbolBits(s)
		wayBits[i/e2mc.SymbolsPerWay] += costs[i]
	}
	compBits := sizeBits(wayBits)
	if compBits >= compress.BlockBits {
		return Decision{Mode: ModeUncompressed, CompBits: compress.BlockBits,
			BudgetBits: compress.BlockBits, StoredBits: compress.BlockBits}
	}
	d := Decision{
		CompBits:   compBits,
		BudgetBits: c.cfg.MAG.BitBudget(compBits),
	}
	d.ExtraBits = compBits - d.BudgetBits
	if d.ExtraBits <= 0 || d.ExtraBits > c.cfg.ThresholdBits {
		d.Mode = ModeLossless
		d.StoredBits = compBits
		return d
	}
	// Lossy candidate: select the sub-block to approximate. The tree lives
	// on the stack — decide runs once per synced block.
	var tree Tree
	tree.Reset(&costs, c.cfg.Variant == OPT)
	need := d.ExtraBits
	for iter := 0; iter < 8; iter++ {
		node, ok := tree.Select(need, MaxApproxSymbols)
		if !ok {
			break
		}
		lossy := wayBits
		lossy[wayOf(node.Start, node.Count)] -= node.Sum
		stored := sizeBits(lossy)
		if stored <= d.BudgetBits {
			d.Mode = ModeLossy
			d.StoredBits = stored
			d.Node = node
			return d
		}
		// Way byte-padding absorbed part of the removed bits; ask for a
		// larger sum and retry (at most +7 bits per iteration).
		inc := stored - d.BudgetBits
		if inc < 1 {
			inc = 1
		}
		need = node.Sum + inc
	}
	d.Mode = ModeLossless
	d.StoredBits = compBits
	return d
}

// Compress implements compress.Codec, applying the SLC decision.
func (c *Codec) Compress(block []byte) compress.Encoded {
	if err := compress.CheckBlock(block); err != nil {
		panic(err)
	}
	syms := compress.Symbols(block)
	d := c.decide(&syms)
	switch d.Mode {
	case ModeUncompressed:
		p := make([]byte, compress.BlockSize)
		copy(p, block)
		return compress.Encoded{Bits: compress.BlockBits, Payload: p}
	case ModeLossless:
		return c.emit(&syms, 0, 0, d)
	default:
		return c.emit(&syms, d.Node.Start, d.Node.Count, d)
	}
}

// SyncBlock implements compress.Codec: the decision runs as in Compress and
// a lossy approximation is written straight back into block, but no bitstream
// is materialised. This is equivalent to Compress followed by Decompress
// copied over block: non-truncated symbols round-trip exactly through the
// entropy coder (emit panics if the emitted size ever disagrees with the
// decision), so reconstructing the truncated span from the original symbols
// yields the same bytes as reconstructing it from the decoded ones.
//
//slclint:allocfree
func (c *Codec) SyncBlock(block []byte) (int, bool) {
	if err := compress.CheckBlock(block); err != nil {
		panic(err)
	}
	syms := compress.Symbols(block)
	d := c.decide(&syms)
	if d.Mode != ModeLossy {
		return d.StoredBits, false
	}
	fillApproximated(&syms, d.Node.Start, d.Node.Count, c.cfg.Variant)
	compress.PutSymbols(block, syms)
	return d.StoredBits, true
}

// emit encodes the block with the given skip span and builds the header.
func (c *Codec) emit(syms *[compress.SymbolsPerBlock]uint16, skipStart, skipLen int, d Decision) compress.Encoded {
	ways, _, _ := c.tab.EncodeWays(*syms, skipStart, skipLen)
	w := compress.NewBitWriter(d.StoredBits)
	w.WriteBool(skipLen > 0) // m
	if skipLen > 0 {
		w.WriteBits(uint64(skipStart), ssBits)
		w.WriteBits(uint64(skipLen-1), lenBits)
	} else {
		w.WriteBits(0, ssBits+lenBits)
	}
	off := HeaderBits / 8
	var starts [e2mc.PDWs]int
	for wy := 0; wy < e2mc.PDWs; wy++ {
		starts[wy] = off
		off += len(ways[wy])
	}
	for wy := 1; wy < e2mc.PDWs; wy++ {
		w.WriteBits(uint64(starts[wy]), pdpBits)
	}
	w.AlignByte()
	buf := w.Bytes()
	for wy := 0; wy < e2mc.PDWs; wy++ {
		buf = append(buf, ways[wy]...)
	}
	bits := len(buf) * 8
	if bits != d.StoredBits {
		panic(fmt.Sprintf("slc: emitted %d bits, decision predicted %d", bits, d.StoredBits))
	}
	return compress.Encoded{Bits: bits, Payload: buf, Lossy: skipLen > 0}
}

// Decompress implements compress.Codec. Truncated symbols are reconstructed
// per the codec's variant: zeros for TSLC-SIMP, value-similarity prediction
// for TSLC-PRED and TSLC-OPT.
func (c *Codec) Decompress(e compress.Encoded, dst []byte) error {
	if len(dst) < compress.BlockSize {
		return fmt.Errorf("slc: dst too small (%d bytes)", len(dst))
	}
	if e.Bits >= compress.BlockBits {
		if len(e.Payload) < compress.BlockSize {
			return fmt.Errorf("slc: raw payload too short")
		}
		copy(dst, e.Payload[:compress.BlockSize])
		return nil
	}
	r := compress.NewBitReader(e.Payload)
	lossy, err := r.ReadBool()
	if err != nil {
		return fmt.Errorf("slc: header: %w", err)
	}
	ssv, err := r.ReadBits(ssBits)
	if err != nil {
		return fmt.Errorf("slc: header ss: %w", err)
	}
	lenv, err := r.ReadBits(lenBits)
	if err != nil {
		return fmt.Errorf("slc: header len: %w", err)
	}
	var starts [e2mc.PDWs]int
	starts[0] = HeaderBits / 8
	for wy := 1; wy < e2mc.PDWs; wy++ {
		v, err := r.ReadBits(pdpBits)
		if err != nil {
			return fmt.Errorf("slc: header pdp: %w", err)
		}
		starts[wy] = int(v)
	}
	skipStart, skipLen := 0, 0
	if lossy {
		skipStart, skipLen = int(ssv), int(lenv)+1
		if skipStart+skipLen > compress.SymbolsPerBlock {
			return fmt.Errorf("slc: approximated span [%d,%d) out of range", skipStart, skipStart+skipLen)
		}
	}
	syms, err := c.tab.DecodeWays(e.Payload, starts, skipStart, skipLen)
	if err != nil {
		return err
	}
	if lossy {
		fillApproximated(&syms, skipStart, skipLen, c.cfg.Variant)
	}
	compress.PutSymbols(dst, syms)
	return nil
}

// fillApproximated reconstructs the truncated span per the variant.
func fillApproximated(syms *[compress.SymbolsPerBlock]uint16, start, n int, v Variant) {
	for i := start; i < start+n; i++ {
		if v == SIMP {
			syms[i] = 0
		} else {
			syms[i] = predictValue(syms, start, n, i)
		}
	}
}

// predictValue implements the paper's value-similarity prediction (§III-E).
// The similarity the paper cites is between adjacent threads' 32-bit values;
// a 32-bit value spans two 16-bit symbols and adjacent threads' values in a
// coalesced record pair sit four symbols apart. A truncated symbol therefore
// takes the nearest non-truncated symbol at the same offset modulo 4 — the
// same half of the nearest neighbouring value — falling back to the first
// same-parity symbol of the block. (The paper's literal "first non-truncated
// symbol" would predict exponent-carrying high halves from mantissa low
// halves, corrupting float magnitudes, which cannot be what a <1%-error
// scheme does; see DESIGN.md.)
func predictValue(syms *[compress.SymbolsPerBlock]uint16, start, n, i int) uint16 {
	for j := i - 4; j >= 0; j -= 4 {
		if j < start { // before the contiguous truncated span
			return syms[j]
		}
	}
	for j := i + 4; j < compress.SymbolsPerBlock; j += 4 {
		if j >= start+n {
			return syms[j]
		}
	}
	for j := i % 2; j < compress.SymbolsPerBlock; j += 2 {
		if j < start || j >= start+n {
			return syms[j]
		}
	}
	return 0
}
