package bpc

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

func TestTransformInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var w [words]uint32
		for i := range w {
			w[i] = rng.Uint32()
		}
		base, dbx := transform(w)
		back := inverse(base, dbx)
		if back != w {
			t.Fatalf("transform/inverse mismatch at trial %d", trial)
		}
	}
}

// TestTransformMatchesBitLoop checks the transposed planes against the
// definition, one bit at a time: plane p (0..32) collects bit p of every
// sign-extended 33-bit delta, and adjacent planes are XORed.
func TestTransformMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		var w [words]uint32
		for i := range w {
			w[i] = rng.Uint32() >> uint(rng.Intn(32))
		}
		var dbp [planes]uint64
		for p := range dbp {
			for i := 0; i < deltas; i++ {
				d := int64(int32(w[i+1])) - int64(int32(w[i]))
				dbp[p] |= uint64(d>>uint(p)&1) << uint(i)
			}
		}
		want := dbp
		for p := 0; p < planes-1; p++ {
			want[p] = dbp[p] ^ dbp[p+1]
		}
		if base, got := transform(w); base != w[0] || got != want {
			t.Fatalf("trial %d: transform planes %x, bit loop %x", trial, got, want)
		}
	}
}

func TestZeroBlock(t *testing.T) {
	block := make([]byte, compress.BlockSize)
	enc := roundTrip(t, block)
	// base (32) + one zero-run record covering all 33 planes (2+5).
	if enc.Bits != 32+7 {
		t.Errorf("zero block = %d bits, want 39", enc.Bits)
	}
}

func TestLinearRamp(t *testing.T) {
	// Arithmetic sequences have constant deltas → all DBX planes zero
	// except around the sign/low planes: BPC's sweet spot.
	block := make([]byte, compress.BlockSize)
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(block[i*4:], uint32(1000+7*i))
	}
	enc := roundTrip(t, block)
	if enc.Bits > 120 {
		t.Errorf("ramp compressed to %d bits; BPC should crush constant deltas", enc.Bits)
	}
}

func TestSmallIntegers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	block := make([]byte, compress.BlockSize)
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(block[i*4:], uint32(rng.Intn(64)))
	}
	enc := roundTrip(t, block)
	if enc.Bits >= compress.BlockBits/2 {
		t.Errorf("small ints = %d bits, want < half block", enc.Bits)
	}
}

func TestFloatData(t *testing.T) {
	block := make([]byte, compress.BlockSize)
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(block[i*4:], math.Float32bits(1.5+float32(i)*0.125))
	}
	roundTrip(t, block)
}

func TestRandomFallsBackToRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	block := make([]byte, compress.BlockSize)
	rng.Read(block)
	enc := roundTrip(t, block)
	if enc.Bits != compress.BlockBits {
		t.Errorf("random block = %d bits, want raw fallback", enc.Bits)
	}
}

func TestSyncBlockMatchesCompress(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var c Codec
	for trial := 0; trial < 200; trial++ {
		block := make([]byte, compress.BlockSize)
		switch trial % 3 {
		case 0:
			for i := 0; i < 32; i++ {
				binary.LittleEndian.PutUint32(block[i*4:], uint32(trial*100+i*3))
			}
		case 1:
			for i := 0; i < 32; i++ {
				binary.LittleEndian.PutUint32(block[i*4:], uint32(rng.Intn(1<<16)))
			}
		case 2:
			rng.Read(block)
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
		switch rng.Intn(4) {
		case 0: // ramps with noise
			step := uint32(rng.Intn(1000))
			v := rng.Uint32()
			for i := 0; i < 32; i++ {
				binary.LittleEndian.PutUint32(block[i*4:], v)
				v += step + uint32(rng.Intn(3))
			}
		case 1: // sparse
			for i := 0; i < 32; i += 3 {
				binary.LittleEndian.PutUint32(block[i*4:], rng.Uint32())
			}
		case 2: // floats
			for i := 0; i < 32; i++ {
				binary.LittleEndian.PutUint32(block[i*4:], math.Float32bits(rng.Float32()*100))
			}
		case 3:
			rng.Read(block)
		}
		enc := c.Compress(block)
		dst := make([]byte, compress.BlockSize)
		if err := c.Decompress(enc, dst); err != nil {
			return false
		}
		return bytes.Equal(dst, block)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestDecompressTruncated(t *testing.T) {
	var c Codec
	block := make([]byte, compress.BlockSize)
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(block[i*4:], uint32(i*17))
	}
	enc := c.Compress(block)
	enc.Payload = enc.Payload[:3]
	dst := make([]byte, compress.BlockSize)
	if err := c.Decompress(enc, dst); err == nil {
		t.Error("expected error for truncated payload")
	}
}
