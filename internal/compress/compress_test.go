package compress

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMAGValid(t *testing.T) {
	for _, m := range []MAG{MAG16, MAG32, MAG64, 8, 128} {
		if !m.Valid() {
			t.Errorf("MAG %d should be valid", m)
		}
	}
	for _, m := range []MAG{0, -32, 24, 48, 256} {
		if m.Valid() {
			t.Errorf("MAG %d should be invalid", m)
		}
	}
}

func TestMAGBursts(t *testing.T) {
	tests := []struct {
		m    MAG
		bits int
		want int
	}{
		{MAG32, 0, 1},
		{MAG32, 1, 1},
		{MAG32, 256, 1},  // exactly 32 B
		{MAG32, 257, 2},  // one bit over one burst
		{MAG32, 288, 2},  // 36 B → 64 B (paper's example)
		{MAG32, 512, 2},  // 64 B
		{MAG32, 1024, 4}, // full block
		{MAG32, 2048, 4}, // clamped
		{MAG16, 129, 2},  // 16.1 B → 32 B
		{MAG16, 1024, 8}, // full block
		{MAG64, 511, 1},  // under 64 B
		{MAG64, 513, 2},  // just over
		{MAG64, 1024, 2}, // full block
	}
	for _, tt := range tests {
		if got := tt.m.Bursts(tt.bits); got != tt.want {
			t.Errorf("MAG %v Bursts(%d) = %d, want %d", tt.m, tt.bits, got, tt.want)
		}
	}
}

func TestMAGEffectiveRatioPaperExample(t *testing.T) {
	// Paper §I: "for a compressed size of 36B, we fetch 64B. Thus, a
	// compression ratio that seems close to 4× (3.6×) is actually only 2×."
	bits := 36 * 8
	if got := RawRatio(bits); got < 3.5 || got > 3.6 {
		t.Errorf("raw ratio of 36B = %.3f, want ≈3.56", got)
	}
	if got := EffectiveRatio(bits, MAG32); got != 2.0 {
		t.Errorf("effective ratio of 36B at MAG 32B = %.3f, want 2.0", got)
	}
}

func TestMAGBytesAboveMAG(t *testing.T) {
	tests := []struct {
		m    MAG
		bits int
		want int
	}{
		{MAG32, 36 * 8, 4}, // 4 bytes above 32
		{MAG32, 64 * 8, 0}, // exact multiple
		{MAG32, 20 * 8, 0}, // under one MAG folds into origin
		{MAG32, 1024, 32},  // uncompressed bin
		{MAG32, 97 * 8, 1}, // 1 byte above 96
		{MAG64, 70 * 8, 6}, // 6 above 64
	}
	for _, tt := range tests {
		if got := tt.m.BytesAboveMAG(tt.bits); got != tt.want {
			t.Errorf("MAG %v BytesAboveMAG(%d bits) = %d, want %d", tt.m, tt.bits, got, tt.want)
		}
	}
}

func TestMAGBitBudget(t *testing.T) {
	tests := []struct {
		m    MAG
		bits int
		want int
	}{
		{MAG32, 300, 256},   // 37.5 B → 32 B budget
		{MAG32, 100, 256},   // under one MAG → one MAG
		{MAG32, 256, 256},   // exact
		{MAG32, 600, 512},   // 75 B → 64 B
		{MAG32, 1024, 1024}, // incompressible
		{MAG32, 1100, 1024},
		{MAG64, 600, 512},
		{MAG16, 300, 256}, // 37.5 B → 32 B = 2×16B
	}
	for _, tt := range tests {
		if got := tt.m.BitBudget(tt.bits); got != tt.want {
			t.Errorf("MAG %v BitBudget(%d) = %d, want %d", tt.m, tt.bits, got, tt.want)
		}
	}
}

func TestMAGBudgetInvariants(t *testing.T) {
	// Property: for any compressed size, the budget is a multiple of MAG,
	// within [MAG, BlockBits], and ≤ max(compBits, MAG.Bits()).
	f := func(bits uint16, pick uint8) bool {
		m := []MAG{MAG16, MAG32, MAG64}[int(pick)%3]
		b := m.BitBudget(int(bits))
		if b%m.Bits() != 0 || b < m.Bits() || b > BlockBits {
			return false
		}
		if int(bits) >= m.Bits() && int(bits) < BlockBits && b > int(bits) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitWriterReaderRoundTrip(t *testing.T) {
	w := NewBitWriter(128)
	w.WriteBits(0b101, 3)
	w.WriteBool(true)
	w.WriteBits(0xDEADBEEF, 32)
	w.WriteBits(0, 7)
	w.WriteBits(0x3FFF, 14)
	r := NewBitReader(w.Bytes())
	if v, _ := r.ReadBits(3); v != 0b101 {
		t.Errorf("first field = %b", v)
	}
	if b, _ := r.ReadBool(); !b {
		t.Error("bool bit lost")
	}
	if v, _ := r.ReadBits(32); v != 0xDEADBEEF {
		t.Errorf("word = %x", v)
	}
	if v, _ := r.ReadBits(7); v != 0 {
		t.Errorf("zeros = %b", v)
	}
	if v, _ := r.ReadBits(14); v != 0x3FFF {
		t.Errorf("tail = %x", v)
	}
	if r.Remaining() >= 8 {
		t.Errorf("unexpected %d bits remaining", r.Remaining())
	}
}

func TestBitIOQuickRoundTrip(t *testing.T) {
	f := func(vals []uint64, widths []uint8) bool {
		n := len(vals)
		if len(widths) < n {
			n = len(widths)
		}
		w := NewBitWriter(64 * n)
		ws := make([]int, n)
		for i := 0; i < n; i++ {
			ws[i] = int(widths[i])%64 + 1
			w.WriteBits(vals[i], ws[i])
		}
		r := NewBitReader(w.Bytes())
		for i := 0; i < n; i++ {
			v, err := r.ReadBits(ws[i])
			if err != nil {
				return false
			}
			mask := ^uint64(0)
			if ws[i] < 64 {
				mask = 1<<uint(ws[i]) - 1
			}
			if v != vals[i]&mask {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// bitAtATime is the reference writer: one bit per step, MSB first.
type bitAtATime struct {
	buf  []byte
	nbit int
}

func (w *bitAtATime) WriteBits(v uint64, n int) {
	for i := n - 1; i >= 0; i-- {
		if w.nbit&7 == 0 {
			w.buf = append(w.buf, 0)
		}
		if v>>uint(i)&1 != 0 {
			w.buf[w.nbit>>3] |= 0x80 >> uint(w.nbit&7)
		}
		w.nbit++
	}
}

// TestBitWriterMatchesBitAtATime checks the byte-filling WriteBits against
// the reference over random (v, n ∈ [0, 64]) sequences, with junk above bit
// n of v, which both must ignore.
func TestBitWriterMatchesBitAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for seq := 0; seq < 200; seq++ {
		w := NewBitWriter(0)
		var ref bitAtATime
		for i := rng.Intn(40); i >= 0; i-- {
			v, n := rng.Uint64(), rng.Intn(65)
			w.WriteBits(v, n)
			ref.WriteBits(v, n)
		}
		if w.Len() != ref.nbit || !bytes.Equal(w.Bytes(), ref.buf) {
			t.Fatalf("sequence %d: %d bits %x, reference %d bits %x",
				seq, w.Len(), w.Bytes(), ref.nbit, ref.buf)
		}
	}
}

func TestBitReaderExhaustion(t *testing.T) {
	r := NewBitReader([]byte{0xFF})
	if _, err := r.ReadBits(9); err == nil {
		t.Error("expected error reading past end of stream")
	}
	if _, err := r.ReadBits(8); err != nil {
		t.Errorf("8-bit read should succeed: %v", err)
	}
	if _, err := r.ReadBits(1); err == nil {
		t.Error("expected error after stream consumed")
	}
}

func TestBitWriterAlign(t *testing.T) {
	w := NewBitWriter(16)
	w.WriteBits(1, 3)
	if pad := w.AlignByte(); pad != 5 {
		t.Errorf("pad = %d, want 5", pad)
	}
	if w.Len() != 8 {
		t.Errorf("len = %d, want 8", w.Len())
	}
	if pad := w.AlignByte(); pad != 0 {
		t.Errorf("aligned writer padded %d more bits", pad)
	}
}

func TestRawCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	block := make([]byte, BlockSize)
	rng.Read(block)
	var c Raw
	enc := c.Compress(block)
	if enc.Bits != BlockBits {
		t.Errorf("raw bits = %d", enc.Bits)
	}
	dst := make([]byte, BlockSize)
	if err := c.Decompress(enc, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, block) {
		t.Error("raw round trip mismatch")
	}
}

func TestWordsSymbolsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	block := make([]byte, BlockSize)
	rng.Read(block)

	var back [BlockSize]byte
	PutWords(back[:], Words(block))
	if !bytes.Equal(back[:], block) {
		t.Error("Words/PutWords round trip mismatch")
	}
	PutSymbols(back[:], Symbols(block))
	if !bytes.Equal(back[:], block) {
		t.Error("Symbols/PutSymbols round trip mismatch")
	}
}

func TestCheckBlock(t *testing.T) {
	if err := CheckBlock(make([]byte, BlockSize)); err != nil {
		t.Errorf("valid block rejected: %v", err)
	}
	if err := CheckBlock(make([]byte, 64)); err == nil {
		t.Error("short block accepted")
	}
}
