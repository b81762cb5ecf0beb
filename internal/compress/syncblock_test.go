package compress_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/compress"
	_ "repro/internal/compress/all" // register every codec
	"repro/internal/compress/bdi"
	"repro/internal/compress/e2mc"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// tieBlock is a block that BDI codes equally well as base8-delta4 and
// base2-delta1 (596 bits each) and with no smaller geometry: 8-byte
// elements alternate between small values below 2^16 (the zero base) and
// 0x8050_0000 (the base), so every 16-bit element sits within a byte of
// zero or of 0x80a0, while the 4-byte elements need a third base.
func tieBlock() []byte {
	b := make([]byte, compress.BlockSize)
	for i := 0; i < compress.BlockSize/8; i++ {
		v := uint64(0x8050_0000)
		if i%2 == 0 {
			v = 0x80a0 + uint64(i)
		}
		binary.LittleEndian.PutUint64(b[i*8:], v)
	}
	return b
}

// pointerBlock fills 16 64-bit slots with pointers whose top 32 bits take
// the given number of distinct values: HyComp's pointer test accepts at
// most two.
func pointerBlock(rng *rand.Rand, tops int) []byte {
	b := make([]byte, compress.BlockSize)
	for i := 0; i < compress.BlockSize/8; i++ {
		top := uint64(0x7f10 + i%tops)
		binary.LittleEndian.PutUint64(b[i*8:], top<<32|uint64(0x1000+rng.Intn(4096)*8))
	}
	return b
}

// floatBlock fills 32 words whose top (sign+exponent) byte takes the given
// number of distinct values: HyComp's float test accepts at most six. Only
// the top 5 mantissa bits vary, so the block compresses and the method
// HyComp picks shows in its size.
func floatBlock(rng *rand.Rand, tops int) []byte {
	b := make([]byte, compress.BlockSize)
	for i := 0; i < compress.WordsPerBlock; i++ {
		top := []uint32{0x3f, 0xbf, 0x40, 0xc0, 0x43, 0xc3, 0x47, 0xc7}[i%tops]
		binary.LittleEndian.PutUint32(b[i*4:], top<<24|uint32(rng.Intn(32))<<18)
	}
	return b
}

// syncCorpus is the fixed block corpus of the SyncBlock fixture: the
// benchmark corpus plus hand-built blocks on the codecs' decision
// boundaries (the BDI tie, the zero block, pointer and float blocks either
// side of HyComp's type tests).
func syncCorpus() [][]byte {
	rng := rand.New(rand.NewSource(7))
	blocks := benchBlocks(256)
	blocks = append(blocks, tieBlock(), make([]byte, compress.BlockSize))
	for tops := 1; tops <= 3; tops++ {
		blocks = append(blocks, pointerBlock(rng, tops))
	}
	for tops := 5; tops <= 8; tops++ {
		blocks = append(blocks, floatBlock(rng, tops))
	}
	return blocks
}

// buildCorpusCodec builds a registered codec at MAG 32 B with its default
// threshold and error bound, and an entropy table trained on blocks.
func buildCorpusCodec(tb testing.TB, name string, blocks [][]byte) compress.Codec {
	tb.Helper()
	ctx := compress.BuildContext{MAG: compress.MAG32}
	if info, _ := compress.Lookup(name); info.NeedsTable {
		tr := e2mc.NewTrainer()
		for _, b := range blocks {
			tr.Sample(b)
		}
		tab, err := tr.Build(0, 0)
		if err != nil {
			tb.Fatal(err)
		}
		ctx.Table = tab
	}
	c, err := compress.Build(name, ctx)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// syncSummary is one codec's fixture entry.
type syncSummary struct {
	Blocks int    `json:"blocks"`
	Bits   int    `json:"bits"`
	Lossy  int    `json:"lossy"`
	FNV    string `json:"fnv1a64"` // over every block's (bits, lossy, block after SyncBlock)
	// PayloadFNV hashes every block's Compress output, (Bits, len(Payload),
	// Payload). Sizes alone cannot tell two parses of equal cost apart: a
	// same-length LZ4B match at another offset costs the same bits.
	PayloadFNV string `json:"payload_fnv1a64"`
}

func summarizeSync(c compress.Codec, blocks [][]byte) syncSummary {
	h := fnv.New64a()
	var s syncSummary
	buf := make([]byte, compress.BlockSize)
	for _, b := range blocks {
		copy(buf, b)
		bits, lossy := c.SyncBlock(buf)
		s.Blocks++
		s.Bits += bits
		var rec [5]byte
		binary.LittleEndian.PutUint32(rec[:], uint32(bits))
		if lossy {
			s.Lossy++
			rec[4] = 1
		}
		h.Write(rec[:])
		h.Write(buf)
	}
	s.FNV = fmt.Sprintf("%016x", h.Sum64())
	h.Reset()
	for _, b := range blocks {
		enc := c.Compress(b)
		var rec [8]byte
		binary.LittleEndian.PutUint32(rec[:], uint32(enc.Bits))
		binary.LittleEndian.PutUint32(rec[4:], uint32(len(enc.Payload)))
		h.Write(rec[:])
		h.Write(enc.Payload)
	}
	s.PayloadFNV = fmt.Sprintf("%016x", h.Sum64())
	return s
}

// TestSyncBlockMatchesFixture pins every registered codec's SyncBlock — the
// bits, the lossy flag and the write-back — and its Compress payload bytes
// over a fixed corpus. A codec
// optimisation must leave the fixture unchanged; regenerate it with
//
//	go test ./internal/compress/ -run SyncBlockMatchesFixture -update
//
// only after an intentional change to a codec's output.
func TestSyncBlockMatchesFixture(t *testing.T) {
	blocks := syncCorpus()
	got := map[string]syncSummary{}
	for _, name := range compress.Names() {
		got[name] = summarizeSync(buildCorpusCodec(t, name, blocks), blocks)
	}
	buf, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	path := filepath.Join("testdata", "syncblock_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf, 0o666); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(buf))
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(buf, raw) {
		return
	}
	var want map[string]syncSummary
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: not in %s", name, path)
		} else if g != w {
			t.Errorf("%s: SyncBlock %+v, fixture %+v", name, g, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: in %s but not registered", name, path)
		}
	}
}

// TestBDITiePicksLowestEncoding pins BDI's choice on the tie block: of two
// 596-bit encodings the lower one, base8-delta4, wins every time, so
// Compress emits one payload.
func TestBDITiePicksLowestEncoding(t *testing.T) {
	block := tieBlock()
	if got := bdi.EncodingName(block); got != "base8-delta4" {
		t.Fatalf("tie block encodes as %s, want base8-delta4", got)
	}
	var c bdi.Codec
	first := c.Compress(block)
	if first.Bits != 596 {
		t.Fatalf("tie block takes %d bits, want 596", first.Bits)
	}
	for i := 0; i < 100; i++ {
		if enc := c.Compress(block); !bytes.Equal(enc.Payload, first.Payload) {
			t.Fatalf("call %d: payload %x, first call %x", i, enc.Payload, first.Payload)
		}
	}
}

// TestSyncBlockAllocFree pins every registered codec's SyncBlock to zero
// heap allocations over a mixed corpus.
func TestSyncBlockAllocFree(t *testing.T) {
	blocks := syncCorpus()
	buf := make([]byte, compress.BlockSize)
	for _, name := range compress.Names() {
		c := buildCorpusCodec(t, name, blocks)
		allocs := testing.AllocsPerRun(5, func() {
			for _, b := range blocks {
				copy(buf, b)
				c.SyncBlock(buf)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: SyncBlock allocates %.1f objects per pass over %d blocks, want 0",
				name, allocs, len(blocks))
		}
	}
}

// TestDecompressAllocFree pins every registered codec's Decompress to zero
// heap allocations over the encodings of the same corpus.
func TestDecompressAllocFree(t *testing.T) {
	blocks := syncCorpus()
	dst := make([]byte, compress.BlockSize)
	for _, name := range compress.Names() {
		c := buildCorpusCodec(t, name, blocks)
		encs := make([]compress.Encoded, len(blocks))
		for i, b := range blocks {
			encs[i] = c.Compress(b)
		}
		allocs := testing.AllocsPerRun(5, func() {
			for _, e := range encs {
				if err := c.Decompress(e, dst); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Decompress allocates %.1f objects per pass over %d blocks, want 0",
				name, allocs, len(blocks))
		}
	}
}
