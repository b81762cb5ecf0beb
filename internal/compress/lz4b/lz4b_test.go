package lz4b

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/compress"
)

func roundTrip(t *testing.T, block []byte) compress.Encoded {
	t.Helper()
	var c Codec
	enc := c.Compress(block)
	if enc.Bits <= 0 || enc.Bits > compress.BlockBits {
		t.Fatalf("compressed size %d bits outside (0, %d]", enc.Bits, compress.BlockBits)
	}
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
	// All zeros: one literal run seeds the window, then overlapping matches
	// (offset 1) replicate it. The whole block must fit in a handful of
	// tokens, far under one 32 B burst.
	block := make([]byte, compress.BlockSize)
	enc := roundTrip(t, block)
	if enc.Bits >= compress.MAG32.Bits() {
		t.Errorf("zero block = %d bits, want < %d (one burst)", enc.Bits, compress.MAG32.Bits())
	}
}

func TestRepeatedPattern(t *testing.T) {
	// A repeating 4-byte pattern compresses to literals + long matches.
	block := make([]byte, compress.BlockSize)
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(block[i*4:], 0xDEADBEEF)
	}
	enc := roundTrip(t, block)
	if enc.Bits >= compress.BlockBits/4 {
		t.Errorf("repeated pattern = %d bits, want < %d", enc.Bits, compress.BlockBits/4)
	}
}

func TestIncompressibleFallsBackToRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	block := make([]byte, compress.BlockSize)
	rng.Read(block)
	enc := roundTrip(t, block)
	// Pure noise has no byte-pair repeats to speak of: the literal token
	// overhead pushes the stream past BlockBits and the raw fallback kicks
	// in at exactly BlockBits.
	if enc.Bits != compress.BlockBits {
		t.Logf("noise block compressed to %d bits (fallback not taken)", enc.Bits)
	}
}

func TestOverlappingMatchReplicates(t *testing.T) {
	// One byte then 127 copies: the decoder must handle offset-1 matches
	// that overlap their own output.
	block := bytes.Repeat([]byte{0x5A}, compress.BlockSize)
	enc := roundTrip(t, block)
	if enc.Bits >= compress.MAG32.Bits() {
		t.Errorf("run block = %d bits, want < one burst", enc.Bits)
	}
}

func TestSyncBlockMatchesCompress(t *testing.T) {
	var c Codec
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		block := make([]byte, compress.BlockSize)
		switch trial % 4 {
		case 0:
			rng.Read(block)
		case 1:
			pat := []byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
			for i := range block {
				block[i] = pat[i%len(pat)]
			}
		case 2:
			for i := 0; i < 32; i++ {
				binary.LittleEndian.PutUint32(block[i*4:], uint32(rng.Intn(4096)))
			}
		case 3:
			rng.Read(block[:16]) // noisy head, zero tail
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
		// Mixed structure: runs, copies of earlier spans, and noise — the
		// shapes that exercise every token path.
		for pos := 0; pos < len(block); {
			switch rng.Intn(3) {
			case 0:
				n := 1 + rng.Intn(16)
				b := byte(rng.Intn(256))
				for i := 0; i < n && pos < len(block); i++ {
					block[pos] = b
					pos++
				}
			case 1:
				if pos > 0 {
					src := rng.Intn(pos)
					n := 1 + rng.Intn(24)
					for i := 0; i < n && pos < len(block); i++ {
						block[pos] = block[src+i%(pos-src)]
						pos++
					}
				} else {
					block[pos] = byte(rng.Intn(256))
					pos++
				}
			case 2:
				block[pos] = byte(rng.Intn(256))
				pos++
			}
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

func TestDecompressRejectsBadOffset(t *testing.T) {
	var c Codec
	// A match token at output position 0 has nothing to copy from.
	w := compress.NewBitWriter(16)
	w.WriteBits(1, 1)          // match
	w.WriteBits(0, offsetBits) // offset 1
	w.WriteBits(0, lenBits)    // length MinMatch
	enc := compress.Encoded{Bits: w.Len(), Payload: w.Bytes()}
	dst := make([]byte, compress.BlockSize)
	if err := c.Decompress(enc, dst); err == nil {
		t.Error("expected offset error")
	}
}

func TestDecompressRejectsTruncatedStream(t *testing.T) {
	var c Codec
	// A literal token promising more bytes than the payload holds.
	w := compress.NewBitWriter(16)
	w.WriteBits(0, 1)
	w.WriteBits(31, litLenBits) // 32 literals, none present
	enc := compress.Encoded{Bits: w.Len(), Payload: w.Bytes()}
	dst := make([]byte, compress.BlockSize)
	if err := c.Decompress(enc, dst); err == nil {
		t.Error("expected exhausted-stream error")
	}
}
