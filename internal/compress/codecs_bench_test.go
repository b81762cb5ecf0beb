package compress_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/compress"
	"repro/internal/compress/e2mc"
	"repro/internal/gpu/device"
	"repro/internal/pipeline"
	"repro/internal/slc"
)

// benchBlocks builds a mixed corpus: tick-quantised floats, small integers,
// pointer-like values and raw noise — the block population a GPU memory
// controller sees.
func benchBlocks(n int) [][]byte {
	rng := rand.New(rand.NewSource(99))
	blocks := make([][]byte, n)
	for i := range blocks {
		b := make([]byte, compress.BlockSize)
		switch i % 4 {
		case 0:
			for j := 0; j < 32; j++ {
				v := 2 + float32(rng.Intn(512))/256
				binary.LittleEndian.PutUint32(b[j*4:], math.Float32bits(v))
			}
		case 1:
			for j := 0; j < 32; j++ {
				binary.LittleEndian.PutUint32(b[j*4:], uint32(rng.Intn(4096)))
			}
		case 2:
			base := rng.Uint64()
			for j := 0; j < 16; j++ {
				binary.LittleEndian.PutUint64(b[j*8:], base+uint64(rng.Intn(256)))
			}
		case 3:
			rng.Read(b)
		}
		blocks[i] = b
	}
	return blocks
}

// BenchmarkCodec measures every registered codec's Compress and Decompress
// over the mixed corpus, with entropy tables trained on it. Decompress reads
// encodings made before the timer starts.
func BenchmarkCodec(b *testing.B) {
	blocks := benchBlocks(256)
	dst := make([]byte, compress.BlockSize)
	for _, name := range compress.Names() {
		c := buildCorpusCodec(b, name, blocks)
		encs := make([]compress.Encoded, len(blocks))
		for i, blk := range blocks {
			encs[i] = c.Compress(blk)
		}
		b.Run(name+"/Compress", func(b *testing.B) {
			b.SetBytes(compress.BlockSize)
			for i := 0; i < b.N; i++ {
				c.Compress(blocks[i%len(blocks)])
			}
		})
		b.Run(name+"/Decompress", func(b *testing.B) {
			b.SetBytes(compress.BlockSize)
			for i := 0; i < b.N; i++ {
				if err := c.Decompress(encs[i%len(encs)], dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSyncBlock measures every registered codec's SyncBlock, the
// per-block sizing step of pipeline.Sync, over the mixed corpus, with
// entropy tables trained on it.
func BenchmarkSyncBlock(b *testing.B) {
	blocks := benchBlocks(256)
	buf := make([]byte, compress.BlockSize)
	for _, name := range compress.Names() {
		c := buildCorpusCodec(b, name, blocks)
		b.Run(name, func(b *testing.B) {
			b.SetBytes(compress.BlockSize)
			for i := 0; i < b.N; i++ {
				copy(buf, blocks[i%len(blocks)]) // lossy codecs write back
				c.SyncBlock(buf)
			}
		})
	}
}

// benchSync measures pipeline.Sync — the hot path of every evaluation cell —
// over a 4 MiB approximable region under the full SLC stack (E2MC lossless
// plus TSLC-OPT lossy with write-back), at the given worker count. Compare
// BenchmarkSyncSerial to BenchmarkSyncParallel for the block-fan-out
// speedup.
func benchSync(b *testing.B, workers int) {
	const regionSize = 4 << 20
	dev := device.New()
	r, err := dev.Malloc("bench", regionSize, true)
	if err != nil {
		b.Fatal(err)
	}
	blocks := benchBlocks(512)
	mem, err := dev.Bytes(r.Addr, r.Size)
	if err != nil {
		b.Fatal(err)
	}
	for off := 0; off < len(mem); off += compress.BlockSize {
		copy(mem[off:], blocks[(off/compress.BlockSize)%len(blocks)])
	}
	tr := e2mc.NewTrainer()
	for _, blk := range blocks {
		tr.Sample(blk)
	}
	tab, err := tr.Build(0, 0)
	if err != nil {
		b.Fatal(err)
	}
	lossy, err := slc.New(tab, slc.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	p, err := pipeline.New(dev, compress.MAG32, e2mc.New(tab), lossy)
	if err != nil {
		b.Fatal(err)
	}
	p.SetWorkers(workers)
	b.SetBytes(regionSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Sync(r)
	}
}

func BenchmarkSyncSerial(b *testing.B)   { benchSync(b, 1) }
func BenchmarkSyncParallel(b *testing.B) { benchSync(b, runtime.GOMAXPROCS(0)) }
