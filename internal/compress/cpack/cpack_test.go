package cpack

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/compress"
)

func roundTrip(t *testing.T, block []byte) compress.Encoded {
	t.Helper()
	var c Codec
	enc := c.Compress(block)
	dst := make([]byte, compress.BlockSize)
	if err := c.Decompress(enc, dst); err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if !bytes.Equal(dst, block) {
		t.Fatalf("round trip mismatch\n got %x\nwant %x", dst, block)
	}
	return enc
}

func TestZeroBlock(t *testing.T) {
	block := make([]byte, compress.BlockSize)
	enc := roundTrip(t, block)
	if enc.Bits != 32*2 {
		t.Errorf("zero block = %d bits, want 64", enc.Bits)
	}
}

func TestFullDictionaryMatches(t *testing.T) {
	// Repeating one non-zero word: first occurrence is xxxx (34 bits), the
	// other 31 are mmmm (6 bits each).
	block := make([]byte, compress.BlockSize)
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(block[i*4:], 0xCAFED00D)
	}
	enc := roundTrip(t, block)
	if want := 34 + 31*6; enc.Bits != want {
		t.Errorf("bits = %d, want %d", enc.Bits, want)
	}
}

func TestPartialMatches(t *testing.T) {
	// Words sharing upper halfword/3 bytes exercise mmxx and mmmx.
	block := make([]byte, compress.BlockSize)
	base := uint32(0xABCD1200)
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(block[i*4:], base|uint32(i))
	}
	enc := roundTrip(t, block)
	if enc.Bits >= compress.BlockBits {
		t.Errorf("partial-match data did not compress: %d bits", enc.Bits)
	}
}

func TestZZZXPattern(t *testing.T) {
	block := make([]byte, compress.BlockSize)
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(block[i*4:], uint32(i+1)) // low byte only
	}
	enc := roundTrip(t, block)
	if want := 32 * 12; enc.Bits != want {
		t.Errorf("bits = %d, want %d", enc.Bits, want)
	}
}

func TestDictionaryFIFOWrap(t *testing.T) {
	// More than 16 distinct uncompressible words force FIFO replacement;
	// later repeats of early words must still round trip (they will have
	// been evicted, so they re-encode as xxxx).
	block := make([]byte, compress.BlockSize)
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(block[i*4:], 0x80000000|uint32(i*0x01010101))
	}
	roundTrip(t, block)
}

func TestIncompressibleFallsBackToRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	block := make([]byte, compress.BlockSize)
	rng.Read(block)
	enc := roundTrip(t, block)
	if enc.Bits > compress.BlockBits {
		t.Errorf("bits = %d exceeds block size", enc.Bits)
	}
}

func TestSyncBlockMatchesCompress(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	var c Codec
	for trial := 0; trial < 300; trial++ {
		block := make([]byte, compress.BlockSize)
		switch trial % 3 {
		case 0:
			rng.Read(block)
		case 1:
			base := rng.Uint32() &^ 0xFFFF
			for i := 0; i < 32; i++ {
				binary.LittleEndian.PutUint32(block[i*4:], base|uint32(rng.Intn(1<<16)))
			}
		case 2:
			for i := 0; i < 32; i++ {
				binary.LittleEndian.PutUint32(block[i*4:], math.Float32bits(rng.Float32()*10))
			}
		}
		want := c.Compress(block).Bits
		orig := bytes.Clone(block)
		if got, lossy := c.SyncBlock(block); got != want || lossy || !bytes.Equal(block, orig) {
			t.Fatalf("trial %d: SyncBlock = (%d, %v), Compress.Bits = %d, block changed %v", trial, got, lossy, want, !bytes.Equal(block, orig))
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	var c Codec
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		block := make([]byte, compress.BlockSize)
		for i := 0; i < 32; i++ {
			var v uint32
			switch rng.Intn(6) {
			case 0:
				v = 0
			case 1:
				v = uint32(rng.Intn(256))
			case 2:
				v = rng.Uint32() &^ 0xFFFF
			case 3:
				v = rng.Uint32() &^ 0xFF
			case 4:
				v = rng.Uint32()
			case 5:
				v = 0xAAAA0000 | uint32(rng.Intn(1<<16))
			}
			binary.LittleEndian.PutUint32(block[i*4:], v)
		}
		enc := c.Compress(block)
		dst := make([]byte, compress.BlockSize)
		if err := c.Decompress(enc, dst); err != nil {
			return false
		}
		return bytes.Equal(dst, block)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecompressBadIndex(t *testing.T) {
	var c Codec
	// mmmm with an index into an empty dictionary must error, not panic.
	w := compress.NewBitWriter(64)
	w.WriteBits(codeMMMM, 2)
	w.WriteBits(5, 4)
	enc := compress.Encoded{Bits: w.Len(), Payload: w.Bytes()}
	dst := make([]byte, compress.BlockSize)
	if err := c.Decompress(enc, dst); err == nil {
		t.Error("expected dictionary index error")
	}
}
