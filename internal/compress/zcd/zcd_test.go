package zcd

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/compress"
)

func codec(t *testing.T, mag compress.MAG) Codec {
	t.Helper()
	c, err := New(mag)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func roundTrip(t *testing.T, c Codec, block []byte) compress.Encoded {
	t.Helper()
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

func TestNewValidatesMAG(t *testing.T) {
	for _, mag := range []compress.MAG{0, -32, 3, 256} {
		if _, err := New(mag); err == nil {
			t.Errorf("New(%d) accepted an invalid MAG", int(mag))
		}
	}
	if _, err := New(compress.MAG32); err != nil {
		t.Errorf("New(32): %v", err)
	}
}

func TestZeroBlockIsOneCodePerSector(t *testing.T) {
	for _, mag := range []compress.MAG{compress.MAG16, compress.MAG32, compress.MAG64} {
		c := codec(t, mag)
		block := make([]byte, compress.BlockSize)
		enc := roundTrip(t, c, block)
		want := mag.MaxBursts() * codeBits
		if enc.Bits != want {
			t.Errorf("MAG %s: zero block = %d bits, want %d", mag, enc.Bits, want)
		}
		// The headline property: an all-zero block always fits one burst.
		if got := mag.Bursts(enc.Bits); got != 1 {
			t.Errorf("MAG %s: zero block needs %d bursts, want 1", mag, got)
		}
	}
}

func TestRepeatedWordBlock(t *testing.T) {
	c := codec(t, compress.MAG32)
	block := make([]byte, compress.BlockSize)
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(block[i*4:], 0x3F800000) // 1.0f everywhere
	}
	enc := roundTrip(t, c, block)
	want := compress.MAG32.MaxBursts() * (codeBits + 32)
	if enc.Bits != want {
		t.Errorf("repeated block = %d bits, want %d", enc.Bits, want)
	}
	if got := compress.MAG32.Bursts(enc.Bits); got != 1 {
		t.Errorf("repeated block needs %d bursts, want 1", got)
	}
}

func TestMixedSectors(t *testing.T) {
	// Sector 0 zero, sector 1 repeated, sectors 2-3 literal noise.
	c := codec(t, compress.MAG32)
	block := make([]byte, compress.BlockSize)
	for i := 32; i < 64; i += 4 {
		binary.LittleEndian.PutUint32(block[i:], 0xCAFEBABE)
	}
	rng := rand.New(rand.NewSource(5))
	rng.Read(block[64:])
	enc := roundTrip(t, c, block)
	want := codeBits + (codeBits + 32) + 2*(codeBits+compress.MAG32.Bits())
	if enc.Bits != want {
		t.Errorf("mixed block = %d bits, want %d", enc.Bits, want)
	}
}

func TestAllLiteralFallsBackToRaw(t *testing.T) {
	// Four literal sectors would cost BlockBits + 8 code bits: the raw
	// fallback must cap the size at exactly BlockBits.
	c := codec(t, compress.MAG32)
	block := make([]byte, compress.BlockSize)
	rng := rand.New(rand.NewSource(6))
	rng.Read(block)
	enc := roundTrip(t, c, block)
	if enc.Bits != compress.BlockBits {
		t.Errorf("incompressible block = %d bits, want %d (raw)", enc.Bits, compress.BlockBits)
	}
}

func TestSyncBlockMatchesCompress(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, mag := range []compress.MAG{compress.MAG16, compress.MAG32, compress.MAG64} {
		c := codec(t, mag)
		for trial := 0; trial < 200; trial++ {
			block := make([]byte, compress.BlockSize)
			// Random per-sector shape.
			for off := 0; off < len(block); off += int(mag) {
				switch rng.Intn(3) {
				case 0: // zero
				case 1:
					w := rng.Uint32()
					for i := off; i < off+int(mag); i += 4 {
						binary.LittleEndian.PutUint32(block[i:], w)
					}
				case 2:
					rng.Read(block[off : off+int(mag)])
				}
			}
			want := c.Compress(block).Bits
			orig := bytes.Clone(block)
			if got, lossy := c.SyncBlock(block); got != want || lossy || !bytes.Equal(block, orig) {
				t.Fatalf("MAG %s trial %d: SyncBlock = (%d, %v), Compress.Bits = %d, block changed %v", mag, trial, got, lossy, want, !bytes.Equal(block, orig))
			}
			roundTrip(t, c, block)
		}
	}
}

func TestDecompressRejectsTruncatedStream(t *testing.T) {
	c := codec(t, compress.MAG32)
	w := compress.NewBitWriter(8)
	w.WriteBits(codeRep, codeBits) // repeated-word code with no word
	enc := compress.Encoded{Bits: w.Len(), Payload: w.Bytes()}
	dst := make([]byte, compress.BlockSize)
	if err := c.Decompress(enc, dst); err == nil {
		t.Error("expected exhausted-stream error")
	}
}

func TestDecompressRejectsUnknownCode(t *testing.T) {
	c := codec(t, compress.MAG32)
	w := compress.NewBitWriter(8)
	w.WriteBits(0b11, codeBits)
	enc := compress.Encoded{Bits: w.Len(), Payload: w.Bytes()}
	dst := make([]byte, compress.BlockSize)
	if err := c.Decompress(enc, dst); err == nil {
		t.Error("expected unknown-code error")
	}
}
