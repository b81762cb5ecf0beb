package pipeline

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/compress"
	"repro/internal/compress/e2mc"
	"repro/internal/compress/fpc"
	"repro/internal/compress/sz"
	"repro/internal/gpu/device"
	"repro/internal/slc"
)

// codecPair builds the lossless and the lossy codec of a fixture from the
// entropy table trained on its approximable region.
type codecPair func(t *testing.T, tab *e2mc.Table) (lossless, lossy compress.Codec)

// e2mcTSLC is the paper's configuration: TSLC-OPT over E2MC.
func e2mcTSLC(t *testing.T, tab *e2mc.Table) (compress.Codec, compress.Codec) {
	lossy, err := slc.New(tab, slc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return e2mc.New(tab), lossy
}

// fpcSZ is an error-bounded configuration: sz-lorenzo over FPC.
func fpcSZ(t *testing.T, _ *e2mc.Table) (compress.Codec, compress.Codec) {
	lossy, err := sz.New(sz.Lorenzo, sz.DefaultBound)
	if err != nil {
		t.Fatal(err)
	}
	return fpc.Codec{}, lossy
}

// syncFixture is a device with one exact and one approximable region, both
// filled, and the codec pair that serves them.
type syncFixture struct {
	dev             *device.Device
	exact, approx   device.Region
	lossless, lossy compress.Codec
}

// newSyncFixture builds a fixture. Building it twice gives two identical
// devices at identical addresses.
func newSyncFixture(t *testing.T, codecs codecPair) syncFixture {
	t.Helper()
	f := syncFixture{dev: device.New()}
	f.exact, _ = f.dev.Malloc("exact", 32*1024, false)
	f.approx, _ = f.dev.Malloc("approx", 32*1024, true)
	fill(t, f.dev, f.exact, 7)
	fill(t, f.dev, f.approx, 8)
	f.lossless, f.lossy = codecs(t, trainTable(t, f.dev, f.approx))
	return f
}

// pipeline returns a pipeline over the fixture's device and codecs.
func (f syncFixture) pipeline(t *testing.T) *Pipeline {
	t.Helper()
	p, err := New(f.dev, compress.MAG32, f.lossless, f.lossy)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// refBlock is the reference's geometry of one block.
type refBlock struct {
	bursts     int
	compressed bool
}

// reference computes what Sync must produce from the materialising codec
// path: Compress each block, and when the encoding is lossy, Decompress it
// and copy the result over the block.
type reference struct {
	f      syncFixture
	stats  Stats
	blocks map[uint64]refBlock
}

func newReference(f syncFixture) *reference {
	return &reference{
		f:      f,
		stats:  Stats{AboveMAG: make([]int64, int(compress.MAG32)+1)},
		blocks: make(map[uint64]refBlock),
	}
}

func (ref *reference) sync(t *testing.T, r device.Region) {
	t.Helper()
	mag := compress.MAG32
	codec := ref.f.lossless
	if r.SafeToApprox {
		codec = ref.f.lossy
	}
	dst := make([]byte, compress.BlockSize)
	for addr := r.Addr; addr < r.End(); addr += compress.BlockSize {
		block, err := ref.f.dev.Block(addr)
		if err != nil {
			t.Fatal(err)
		}
		enc := codec.Compress(block)
		if enc.Lossy {
			if err := codec.Decompress(enc, dst); err != nil {
				t.Fatalf("%s@%#x: %v", r.Name, addr, err)
			}
			copy(block, dst)
			ref.stats.LossyBlocks++
		}
		compressed := enc.Bits < compress.BlockBits
		ref.stats.Blocks++
		if !compressed {
			ref.stats.Uncompressed++
		}
		ref.stats.RawBits += int64(enc.Bits)
		ref.stats.EffBits += int64(mag.Bursts(enc.Bits) * mag.Bits())
		ref.stats.AboveMAG[mag.BytesAboveMAG(enc.Bits)]++
		ref.blocks[addr] = refBlock{bursts: mag.Bursts(enc.Bits), compressed: compressed}
	}
}

// TestSyncMatchesReference pins Sync, serial and parallel, to the
// materialising Compress/Decompress path computed inside the test: the same
// statistics, the same burst geometry and the same device bytes after the
// lossy write-back, over repeated syncs so write-back feeds later decisions.
func TestSyncMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name   string
		codecs codecPair
	}{
		{"e2mc+tslc-opt", e2mcTSLC},
		{"fpc+sz-lorenzo", fpcSZ},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				got := newSyncFixture(t, tc.codecs)
				p := got.pipeline(t)
				p.SetWorkers(workers)
				ref := newReference(newSyncFixture(t, tc.codecs))
				for round := 0; round < 3; round++ {
					for _, r := range []device.Region{got.exact, got.approx} {
						p.Sync(r)
						ref.sync(t, r)
					}
				}
				if ref.stats.LossyBlocks == 0 {
					t.Fatal("fixture produced no lossy blocks; the write-back is untested")
				}
				gs, ws := p.Stats(), ref.stats
				if gs.Blocks != ws.Blocks || gs.LossyBlocks != ws.LossyBlocks ||
					gs.Uncompressed != ws.Uncompressed || gs.RawBits != ws.RawBits ||
					gs.EffBits != ws.EffBits {
					t.Errorf("stats: Sync %+v, reference %+v", gs, ws)
				}
				for i := range ws.AboveMAG {
					if gs.AboveMAG[i] != ws.AboveMAG[i] {
						t.Errorf("AboveMAG[%d]: Sync %d, reference %d", i, gs.AboveMAG[i], ws.AboveMAG[i])
					}
				}
				for _, r := range []device.Region{got.exact, got.approx} {
					gb, _ := got.dev.Bytes(r.Addr, r.Size)
					wb, _ := ref.f.dev.Bytes(r.Addr, r.Size)
					if !bytes.Equal(gb, wb) {
						t.Errorf("region %s: device bytes diverge from the reference", r.Name)
					}
					for addr := r.Addr; addr < r.End(); addr += compress.BlockSize {
						bursts, comp := p.BurstsFor(addr)
						if want := ref.blocks[addr]; bursts != want.bursts || comp != want.compressed {
							t.Errorf("block %#x: Sync (%d,%v), reference (%d,%v)",
								addr, bursts, comp, want.bursts, want.compressed)
						}
					}
				}
			})
		}
	}
}

// TestSyncSerialAllocFree pins the per-block serial Sync steady state to zero
// allocations, for both the lossless (E2MC) and the SLC region.
func TestSyncSerialAllocFree(t *testing.T) {
	f := newSyncFixture(t, e2mcTSLC)
	p := f.pipeline(t)
	// Warm up: first syncs size the block map and apply the initial lossy
	// write-back; afterwards re-syncing the (already approximated) image is
	// the steady state.
	for i := 0; i < 2; i++ {
		p.Sync(f.exact)
		p.Sync(f.approx)
	}
	for _, tc := range []struct {
		name string
		r    device.Region
	}{
		{"lossless region", f.exact},
		{"slc region", f.approx},
	} {
		allocs := testing.AllocsPerRun(10, func() { p.Sync(tc.r) })
		if allocs != 0 {
			blocks := tc.r.Size / compress.BlockSize
			t.Errorf("%s: Sync steady state allocates %.1f objects per call (%d blocks), want 0",
				tc.name, allocs, blocks)
		}
	}
}
