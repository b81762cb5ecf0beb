package compress

import (
	"encoding/binary"
	"fmt"
)

// BitWriter assembles a bitstream most-significant-bit first. All codecs in
// this repository produce real bitstreams — compressed sizes are measured on
// the emitted bits, never estimated.
type BitWriter struct {
	buf  []byte
	nbit int // number of valid bits in buf
}

// NewBitWriter returns a writer with capacity for sizeHint bits.
func NewBitWriter(sizeHint int) *BitWriter {
	return &BitWriter{buf: make([]byte, 0, (sizeHint+7)/8)}
}

// WriteBits appends the n least-significant bits of v, MSB first. n must be
// in [0, 64]; the bits of v above n are ignored. Each step fills the free
// bits of the current byte, up to 8 bits at a time.
func (w *BitWriter) WriteBits(v uint64, n int) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("compress: WriteBits width %d out of range", n))
	}
	for n > 0 {
		free := 8 - w.nbit&7
		if free == 8 {
			w.buf = append(w.buf, 0)
		}
		k := min(free, n)
		n -= k
		chunk := byte(v>>uint(n)) & (0xFF >> uint(8-k))
		w.buf[len(w.buf)-1] |= chunk << uint(free-k)
		w.nbit += k
	}
}

// WriteBool appends a single bit.
func (w *BitWriter) WriteBool(b bool) {
	if b {
		w.WriteBits(1, 1)
	} else {
		w.WriteBits(0, 1)
	}
}

// AlignByte pads with zero bits to the next byte boundary and returns the
// number of padding bits added.
func (w *BitWriter) AlignByte() int {
	pad := (8 - w.nbit&7) & 7
	if pad > 0 {
		w.WriteBits(0, pad)
	}
	return pad
}

// Len returns the number of bits written.
func (w *BitWriter) Len() int { return w.nbit }

// Bytes returns the assembled bitstream; trailing bits of the final byte are
// zero.
func (w *BitWriter) Bytes() []byte { return w.buf }

// BitReader consumes a bitstream produced by BitWriter. Beyond the checked
// ReadBits API it exposes an unchecked peek/skip fast path (PeekBits,
// SkipBits, Overrun) for table-driven entropy decoders: peek a fixed window,
// look the codeword up, consume its length, and batch the bounds check to
// one Overrun call per decoded run instead of one error check per symbol.
type BitReader struct {
	buf []byte
	pos int // bit position; may run past the end (see SkipBits/Overrun)
}

// NewBitReader returns a reader over buf.
func NewBitReader(buf []byte) *BitReader { return &BitReader{buf: buf} }

// Reset repoints the reader at buf and rewinds it to bit 0. It allows a
// stack-allocated BitReader value to be reused across payloads without going
// through NewBitReader's pointer (and potential heap allocation).
func (r *BitReader) Reset(buf []byte) {
	r.buf = buf
	r.pos = 0
}

// peekWindowBits is the widest PeekBits window: load64 byte-aligns the
// position first, so up to 7 of the 64 loaded bits are consumed by the
// intra-byte shift.
const peekWindowBits = 57

// load64 returns 64 bits starting at the current position, MSB-aligned, with
// zeros past the end of the stream. At least peekWindowBits of them are real
// stream bits (or padding zeros); the tail path assembles the final bytes
// individually so no read ever touches memory outside buf.
func (r *BitReader) load64() uint64 {
	i := r.pos >> 3
	if i+8 <= len(r.buf) {
		return binary.BigEndian.Uint64(r.buf[i:]) << uint(r.pos&7)
	}
	var v uint64
	for j := 0; j < 8; j++ {
		v <<= 8
		if i+j >= 0 && i+j < len(r.buf) {
			v |= uint64(r.buf[i+j])
		}
	}
	return v << uint(r.pos&7)
}

// PeekBits returns the next n bits MSB first without consuming them, for n in
// [0, 57]. Bits past the end of the stream read as zero; combine with
// Overrun to detect truncated streams after a decode run. n outside the
// supported window panics — it is a programming error, not a data error.
func (r *BitReader) PeekBits(n int) uint64 {
	if n < 0 || n > peekWindowBits {
		panic(fmt.Sprintf("compress: PeekBits width %d out of [0, %d]", n, peekWindowBits))
	}
	return r.load64() >> (64 - uint(n)) // n == 0 shifts by 64, which Go defines as 0
}

// SkipBits advances the position by n bits with no bounds check: the
// position may legally pass the end of the stream (further PeekBits return
// zeros) so a decode loop can defer its error handling to one Overrun check.
func (r *BitReader) SkipBits(n int) { r.pos += n }

// Overrun reports whether the position has passed the end of the stream —
// i.e. whether any skipped-over bit was fabricated zero padding rather than
// stream data.
func (r *BitReader) Overrun() bool { return r.pos > len(r.buf)*8 }

// ReadBits reads the next n bits MSB first. n must be in [0, 64].
func (r *BitReader) ReadBits(n int) (uint64, error) {
	if n < 0 || n > 64 {
		return 0, fmt.Errorf("compress: ReadBits width %d out of range", n)
	}
	if r.pos+n > len(r.buf)*8 || r.pos > len(r.buf)*8 {
		return 0, fmt.Errorf("compress: bitstream exhausted at bit %d (want %d more)", r.pos, n)
	}
	if n <= peekWindowBits {
		v := r.load64() >> (64 - uint(n))
		r.pos += n
		return v, nil
	}
	hi := r.load64() >> 32
	r.pos += 32
	rest := n - 32
	lo := r.load64() >> (64 - uint(rest))
	r.pos += rest
	return hi<<uint(rest) | lo, nil
}

// ReadBool reads a single bit.
func (r *BitReader) ReadBool() (bool, error) {
	v, err := r.ReadBits(1)
	return v == 1, err
}

// Pos returns the current bit position.
func (r *BitReader) Pos() int { return r.pos }

// Seek moves the read position to the absolute bit offset pos.
func (r *BitReader) Seek(pos int) error {
	if pos < 0 || pos > len(r.buf)*8 {
		return fmt.Errorf("compress: seek to bit %d outside stream of %d bits", pos, len(r.buf)*8)
	}
	r.pos = pos
	return nil
}

// Remaining returns the number of unread bits.
func (r *BitReader) Remaining() int { return len(r.buf)*8 - r.pos }
