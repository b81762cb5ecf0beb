package fpc

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
		t.Fatalf("round trip mismatch")
	}
	return enc
}

func TestZeroBlock(t *testing.T) {
	block := make([]byte, compress.BlockSize)
	enc := roundTrip(t, block)
	// 32 zero words = 4 runs of 8, each prefix(3)+len(3) = 24 bits.
	if enc.Bits != 24 {
		t.Errorf("zero block = %d bits, want 24", enc.Bits)
	}
}

func TestSmallInts(t *testing.T) {
	block := make([]byte, compress.BlockSize)
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(block[i*4:], uint32(i%8)) // 4-bit SE
	}
	enc := roundTrip(t, block)
	// Word 0 and 8 and 16 and 24 are zero singles (runs of 1): 4×6 bits;
	// remaining 28 words are SE4: 28×7 bits = 196. Total 220.
	if enc.Bits != 220 {
		t.Errorf("small ints = %d bits, want 220", enc.Bits)
	}
}

func TestPatternCoverage(t *testing.T) {
	words := []uint32{
		0,          // zero
		5,          // SE4
		0xFFFFFFFB, // -5, SE4
		100,        // SE8
		0xFFFFFF80, // -128, SE8
		30000,      // SE16
		0xFFFF8000, // -32768, SE16
		0xABCD0000, // half padded
		0x00FF00FE, // two halfwords SE bytes (255 is not a SE byte: check)
		0x7B7B7B7B, // repeated bytes
		0xDEADBEEF, // uncompressed
		0x0001FFFF, // two halfwords: 1 and -1
	}
	block := make([]byte, compress.BlockSize)
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(block[i*4:], words[i%len(words)])
	}
	roundTrip(t, block)
}

func TestExpandInverseOfClassify(t *testing.T) {
	f := func(w uint32) bool {
		if w == 0 {
			return true // handled by run-length path
		}
		pat, bits, payload := classify(w)
		mask := uint32(1)<<uint(bits) - 1
		return expand(pat, payload&mask) == w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestFloatData(t *testing.T) {
	block := make([]byte, compress.BlockSize)
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(block[i*4:], math.Float32bits(1.5+float32(i)*0.25))
	}
	enc := roundTrip(t, block)
	if enc.Bits > compress.BlockBits {
		t.Errorf("bits = %d exceeds block", enc.Bits)
	}
}

func TestIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	block := make([]byte, compress.BlockSize)
	rng.Read(block)
	enc := roundTrip(t, block)
	// Random words are mostly uncompressed (35 bits each); Compress caps at
	// the block size and stores raw.
	if enc.Bits != compress.BlockBits {
		t.Errorf("random block = %d bits, want raw fallback", enc.Bits)
	}
}

func TestSyncBlockMatchesCompress(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var c Codec
	for trial := 0; trial < 300; trial++ {
		block := make([]byte, compress.BlockSize)
		switch trial % 4 {
		case 0:
			rng.Read(block)
		case 1: // sparse
			for i := 0; i < 32; i += 4 {
				binary.LittleEndian.PutUint32(block[i*4:], uint32(rng.Intn(1<<16)))
			}
		case 2: // small values
			for i := 0; i < 32; i++ {
				binary.LittleEndian.PutUint32(block[i*4:], uint32(rng.Intn(256)))
			}
		case 3: // floats
			for i := 0; i < 32; i++ {
				binary.LittleEndian.PutUint32(block[i*4:], math.Float32bits(rng.Float32()))
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
		// Mix compressible and incompressible words.
		for i := 0; i < 32; i++ {
			var v uint32
			switch rng.Intn(5) {
			case 0:
				v = 0
			case 1:
				v = uint32(rng.Intn(16)) - 8
			case 2:
				v = uint32(rng.Intn(1 << 16))
			case 3:
				v = rng.Uint32() << 16
			case 4:
				v = rng.Uint32()
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

func TestDecompressTruncated(t *testing.T) {
	var c Codec
	block := make([]byte, compress.BlockSize)
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(block[i*4:], 0x12345678)
	}
	enc := c.Compress(block)
	enc.Payload = enc.Payload[:1]
	dst := make([]byte, compress.BlockSize)
	if err := c.Decompress(enc, dst); err == nil {
		t.Error("expected error for truncated payload")
	}
}
