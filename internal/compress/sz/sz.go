// Package sz implements an error-bounded lossy codec family for scientific
// float data, after the SZ/cuSZ line (Tao et al., IPDPS 2017; Tian et al.,
// PACT 2020): predict each value from its reconstructed predecessors,
// quantize the prediction residual against a user-supplied absolute error
// bound, and entropy-code the quantization codes with a static canonical
// Huffman codebook. Two predictors are provided — Lorenzo (previous value)
// and 1-D linear extrapolation — registered as "sz-lorenzo" and "sz-linear".
//
// The contract differs from the TSLC family: instead of a bounded span of
// approximated symbols, every reconstructed value satisfies
// |reconstructed − original| ≤ bound. The encoder enforces this
// structurally: each lane's reconstruction is computed during encoding with
// exactly the arithmetic the decoder uses, and any lane whose reconstruction
// would miss the bound (or whose value is non-finite — NaN and ±Inf pass
// through bit-exact) is stored as a 32-bit literal instead.
package sz

import (
	"fmt"
	"math"

	"repro/internal/compress"
	"repro/internal/compress/e2mc"
)

// DefaultBound is the absolute error bound used when BuildContext.ErrorBound
// is zero. 1e-3 is the loosest bound of the property-test sweep and a common
// operating point in the SZ literature's absolute-bound mode.
const DefaultBound = 1e-3

const (
	// maskBits is the per-block header: one bit per 32-bit lane, set when
	// the lane is stored as a literal rather than a quantization code.
	maskBits = compress.WordsPerBlock

	// literalBits is the cost of a literal lane: the raw IEEE-754 word.
	literalBits = 32

	// numCodes is the quantization-code alphabet size: zigzagged residual
	// codes in [-128, 127] map to [0, 255]. Residuals outside the range
	// fall back to a literal.
	numCodes = 256
	maxQuant = 127
	minQuant = -128

	// codebookMaxLen caps codeword length. 14 bits keeps the decode LUT at
	// 16K entries and still prices the rarest codes well under the 32-bit
	// literal fallback.
	codebookMaxLen = 14
)

// Predictor selects the prediction function applied to the reconstructed
// value chain.
type Predictor int

const (
	// Lorenzo predicts each value as its reconstructed predecessor — the
	// 1-D Lorenzo predictor of SZ.
	Lorenzo Predictor = iota

	// Linear predicts by 1-D linear extrapolation from the two previous
	// reconstructed values (2·prev − prev2).
	Linear
)

func (p Predictor) String() string {
	if p == Linear {
		return "linear"
	}
	return "lorenzo"
}

// codebook is the static entropy code over the 256 zigzag quantization
// codes, built once at package init from a geometric prior: code u is
// expected roughly twice as often as code u+1, which matches the sharply
// peaked residual histograms of smooth fields and degrades gracefully on
// turbulent ones. Halving weights give the near-zero codes 1–3 bit
// codewords while the package-merge length limit prices the whole tail at
// codebookMaxLen bits.
var codebook = e2mc.MustCodebook(geometricWeights(), codebookMaxLen)

func geometricWeights() []uint64 {
	w := make([]uint64, numCodes)
	for u := range w {
		shift := u
		if shift > 62 {
			shift = 62
		}
		w[u] = 1 << uint(62-shift)
	}
	return w
}

// Codec is one sz variant: a predictor bound to an absolute error bound.
type Codec struct {
	pred  Predictor
	bound float64
	step  float64 // quantization step: 2·bound
}

// New builds an sz codec. A zero bound selects DefaultBound; negative,
// NaN or infinite bounds are rejected.
func New(pred Predictor, bound float64) (*Codec, error) {
	if bound == 0 {
		bound = DefaultBound
	}
	if math.IsNaN(bound) || math.IsInf(bound, 0) || bound < 0 {
		return nil, fmt.Errorf("sz: error bound must be positive and finite, got %v", bound)
	}
	return &Codec{pred: pred, bound: bound, step: 2 * bound}, nil
}

// Bound returns the codec's absolute error bound.
func (c *Codec) Bound() float64 { return c.bound }

// Name implements Codec.
func (c *Codec) Name() string {
	if c.pred == Linear {
		return "SZ-LINEAR"
	}
	return "SZ-LORENZO"
}

// chain is the reconstructed-value history the predictor reads. Encoder and
// decoder advance identical chains through identical helpers, so the
// encoder's bound verification sees exactly the values the decoder will
// reconstruct.
type chain struct {
	prev, prev2 float64
}

func (ch *chain) reset() { ch.prev, ch.prev2 = 0, 0 }

func (ch *chain) predict(pred Predictor) float64 {
	if pred == Linear {
		// 2·prev is exact in binary floating point; the subtraction is one
		// rounded operation on both encode and decode paths.
		return 2*ch.prev - ch.prev2
	}
	return ch.prev
}

func (ch *chain) push(v float64) { ch.prev2, ch.prev = ch.prev, v }

// reconstruct dequantizes one residual against a prediction. The explicit
// float64 conversions pin the rounding points so the compiler cannot fuse
// the multiply-add: encoder and decoder must agree bit-for-bit.
func reconstruct(pred float64, q int32, step float64) float32 {
	return float32(pred + float64(float64(q)*step))
}

func zigzag(q int32) int   { return int(uint32(q<<1) ^ uint32(q>>31)) }
func unzigzag(u int) int32 { return int32(uint32(u)>>1) ^ -int32(uint32(u)&1) }

func isFinite32(v float32) bool {
	f := float64(v)
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// analyze runs the shared encode pass over one block: for each 32-bit lane
// it decides literal vs quantization code, records the zigzag code and the
// word the decoder will reconstruct, and totals the encoded bits. It is the
// single source of truth for Compress and SyncBlock, and it allocates
// nothing — SyncBlock keeps the pipeline's steady state allocation-free.
//
//slclint:allocfree
func (c *Codec) analyze(block []byte, codes *[compress.WordsPerBlock]uint16, recon *[compress.WordsPerBlock]uint32) (bits int, mask uint32, lossy bool) {
	bits = maskBits
	words := compress.Words(block)
	var ch chain
	for i := 0; i < compress.WordsPerBlock; i++ {
		w := words[i]
		v := math.Float32frombits(w)
		if rw, q, ok := c.quantizeLane(&ch, v); ok {
			codes[i] = uint16(zigzag(q))
			recon[i] = rw
			bits += codebook.Bits(int(codes[i]))
			if rw != w {
				lossy = true
			}
			continue
		}
		// Literal lane: stored bit-exact. Non-finite values reset the chain
		// so a NaN does not poison every following prediction.
		mask |= 1 << uint(i)
		recon[i] = w
		bits += literalBits
		if isFinite32(v) {
			ch.push(float64(v))
		} else {
			ch.reset()
		}
	}
	return bits, mask, lossy
}

// quantizeLane attempts to encode one value as a quantization code against
// the chain's prediction. On success it advances the chain with the
// reconstructed value and returns the reconstructed word; on failure the
// chain is untouched and the caller stores a literal.
func (c *Codec) quantizeLane(ch *chain, v float32) (rw uint32, q int32, ok bool) {
	if !isFinite32(v) {
		return 0, 0, false
	}
	pred := ch.predict(c.pred)
	delta := float64(v) - pred
	qf := math.Round(delta / c.step)
	if math.IsNaN(qf) || qf < minQuant || qf > maxQuant {
		return 0, 0, false
	}
	q = int32(qf)
	r := reconstruct(pred, q, c.step)
	if !isFinite32(r) || math.Abs(float64(r)-float64(v)) > c.bound {
		return 0, 0, false
	}
	ch.push(float64(r))
	return math.Float32bits(r), q, true
}

// Compress implements Codec. The payload is the 32-bit literal mask followed
// by the lanes in order: a raw 32-bit word for literal lanes, a codebook
// codeword otherwise. Blocks whose encoding would reach BlockBits are stored
// raw (Bits == BlockBits, payload is the block) and are never lossy.
func (c *Codec) Compress(block []byte) compress.Encoded {
	if err := compress.CheckBlock(block); err != nil {
		panic(err)
	}
	var codes [compress.WordsPerBlock]uint16
	var recon [compress.WordsPerBlock]uint32
	bits, mask, lossy := c.analyze(block, &codes, &recon)
	if bits >= compress.BlockBits {
		p := make([]byte, compress.BlockSize)
		copy(p, block)
		return compress.Encoded{Bits: compress.BlockBits, Payload: p}
	}
	w := compress.NewBitWriter(bits)
	w.WriteBits(uint64(mask), maskBits)
	words := compress.Words(block)
	for i := 0; i < compress.WordsPerBlock; i++ {
		if mask&(1<<uint(i)) != 0 {
			w.WriteBits(uint64(words[i]), literalBits)
		} else {
			codebook.Encode(w, int(codes[i]))
		}
	}
	return compress.Encoded{Bits: w.Len(), Payload: w.Bytes(), Lossy: lossy}
}

// SyncBlock implements compress.Codec: size the block and apply the lossy
// reconstruction in place, with no bitstream. Raw-fallback blocks are left
// untouched.
func (c *Codec) SyncBlock(block []byte) (int, bool) {
	if err := compress.CheckBlock(block); err != nil {
		panic(err)
	}
	var codes [compress.WordsPerBlock]uint16
	var recon [compress.WordsPerBlock]uint32
	bits, _, lossy := c.analyze(block, &codes, &recon)
	if bits >= compress.BlockBits {
		return compress.BlockBits, false
	}
	if lossy {
		compress.PutWords(block, recon)
	}
	return bits, lossy
}

// Decompress implements Codec, reconstructing through the same chain and
// reconstruct helper the encoder verified against.
func (c *Codec) Decompress(enc compress.Encoded, dst []byte) error {
	if len(dst) < compress.BlockSize {
		return fmt.Errorf("sz: dst must hold %d bytes, got %d", compress.BlockSize, len(dst))
	}
	if enc.Bits >= compress.BlockBits {
		if len(enc.Payload) < compress.BlockSize {
			return fmt.Errorf("sz: raw payload must be %d bytes, got %d", compress.BlockSize, len(enc.Payload))
		}
		copy(dst, enc.Payload[:compress.BlockSize])
		return nil
	}
	r := compress.NewBitReader(enc.Payload)
	mask := uint32(r.PeekBits(maskBits))
	r.SkipBits(maskBits)
	var words [compress.WordsPerBlock]uint32
	var ch chain
	for i := 0; i < compress.WordsPerBlock; i++ {
		if mask&(1<<uint(i)) != 0 {
			w := uint32(r.PeekBits(literalBits))
			r.SkipBits(literalBits)
			words[i] = w
			if v := math.Float32frombits(w); isFinite32(v) {
				ch.push(float64(v))
			} else {
				ch.reset()
			}
			continue
		}
		u, ok := codebook.Decode(r)
		if !ok {
			return fmt.Errorf("sz: invalid codeword in lane %d", i)
		}
		rec := reconstruct(ch.predict(c.pred), unzigzag(u), c.step)
		words[i] = math.Float32bits(rec)
		ch.push(float64(rec))
	}
	if r.Overrun() {
		return fmt.Errorf("sz: truncated payload (%d bits)", enc.Bits)
	}
	compress.PutWords(dst, words)
	return nil
}
