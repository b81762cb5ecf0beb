// Package compress defines the common model shared by all memory compression
// techniques in this repository: the 128-byte memory block, the memory access
// granularity (MAG) arithmetic that separates raw from effective compression
// ratio, and the Codec interface every registered technique implements (see
// registry.go).
//
// Terminology follows the SLC paper (Lal et al., DATE 2019):
//
//   - A block is the unit of compression, 128 bytes in current GPUs.
//   - MAG is the amount of data transferred by a single DRAM read or write
//     command (bus width × burst length / 8); 32 B for GDDR5.
//   - The raw compression ratio ignores MAG; the effective compression ratio
//     scales the compressed size up to the next multiple of MAG, because a
//     partial burst cannot be fetched.
package compress

import (
	"encoding/binary"
	"fmt"
)

const (
	// BlockSize is the size of a compression block in bytes. GPUs compress
	// and fetch memory at 128-byte granularity (one coalesced warp access
	// of 32 threads × 4 bytes).
	BlockSize = 128

	// BlockBits is the size of an uncompressed block in bits.
	BlockBits = BlockSize * 8

	// SymbolSize is the size of an E2MC/SLC symbol in bytes. The paper uses
	// 16-bit symbols, the best-performing configuration of E2MC.
	SymbolSize = 2

	// SymbolsPerBlock is the number of 16-bit symbols in one block (64).
	SymbolsPerBlock = BlockSize / SymbolSize

	// WordsPerBlock is the number of 32-bit words in one block (32); BDI,
	// FPC, C-PACK and BPC operate on 32-bit words.
	WordsPerBlock = BlockSize / 4
)

// Encoded is the result of compressing one block.
//
// Bits is the compressed size in bits including any per-block header the
// technique requires; it is the quantity the paper calls "comp size".
// Payload is the technique-specific bitstream needed to reconstruct the
// block. Lossy reports whether the encoding discarded information (only SLC
// produces lossy encodings).
type Encoded struct {
	Bits    int
	Payload []byte
	Lossy   bool
}

// Bytes returns the compressed size rounded up to whole bytes.
func (e Encoded) Bytes() int { return (e.Bits + 7) / 8 }

// Codec compresses and decompresses fixed-size memory blocks.
//
// Compress must accept exactly BlockSize bytes. Decompress must reconstruct
// the original block exactly for lossless codecs; dst must have room for
// BlockSize bytes.
//
// SyncBlock is the pipeline's per-block sync step: it sizes the block the way
// the memory controller does before encoding it (paper §III-C) and applies
// any lossy write-back in place, without materialising a bitstream. It must
// be equivalent to Compress followed, when Lossy, by Decompress copied over
// block: the same bits, the same lossy flag and the same final block
// contents; a non-lossy SyncBlock leaves block unchanged. The fuzz harness
// pins this for every registered codec.
type Codec interface {
	Name() string
	Compress(block []byte) Encoded
	Decompress(enc Encoded, dst []byte) error
	SyncBlock(block []byte) (bits int, lossy bool)
}

// CheckBlock validates that b is exactly one block long.
func CheckBlock(b []byte) error {
	if len(b) != BlockSize {
		return fmt.Errorf("compress: block must be %d bytes, got %d", BlockSize, len(b))
	}
	return nil
}

// Words unpacks a block into its 32 little-endian 32-bit words.
func Words(block []byte) [WordsPerBlock]uint32 {
	var w [WordsPerBlock]uint32
	for i := range w {
		w[i] = binary.LittleEndian.Uint32(block[i*4:])
	}
	return w
}

// PutWords packs 32 little-endian 32-bit words into dst.
func PutWords(dst []byte, w [WordsPerBlock]uint32) {
	for i, v := range w {
		binary.LittleEndian.PutUint32(dst[i*4:], v)
	}
}

// Symbols unpacks a block into its 64 little-endian 16-bit symbols.
func Symbols(block []byte) [SymbolsPerBlock]uint16 {
	var s [SymbolsPerBlock]uint16
	for i := range s {
		s[i] = binary.LittleEndian.Uint16(block[i*2:])
	}
	return s
}

// PutSymbols packs 64 little-endian 16-bit symbols into dst.
func PutSymbols(dst []byte, s [SymbolsPerBlock]uint16) {
	for i, v := range s {
		binary.LittleEndian.PutUint16(dst[i*2:], v)
	}
}

// Raw is the identity codec: blocks are stored uncompressed. It anchors the
// no-compression baseline in the simulator and experiments.
type Raw struct{}

// Name implements Codec.
func (Raw) Name() string { return "RAW" }

// Compress implements Codec; the encoded size is always a full block.
func (Raw) Compress(block []byte) Encoded {
	p := make([]byte, BlockSize)
	copy(p, block)
	return Encoded{Bits: BlockBits, Payload: p}
}

// SyncBlock implements Codec; the identity codec never mutates the block.
func (Raw) SyncBlock([]byte) (int, bool) { return BlockBits, false }

// Decompress implements Codec.
func (Raw) Decompress(enc Encoded, dst []byte) error {
	if len(enc.Payload) != BlockSize {
		return fmt.Errorf("compress: raw payload must be %d bytes, got %d", BlockSize, len(enc.Payload))
	}
	copy(dst, enc.Payload)
	return nil
}
