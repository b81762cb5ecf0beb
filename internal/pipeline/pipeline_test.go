package pipeline

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/compress"
	"repro/internal/compress/bdi"
	"repro/internal/compress/e2mc"
	"repro/internal/gpu/device"
	"repro/internal/slc"
)

// fill writes float data with mixed precision — mostly tick-quantised values
// with occasional full-precision ones — so compressed sizes scatter around
// the burst boundaries, the regime SLC targets.
func fill(t *testing.T, dev *device.Device, r device.Region, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b, err := dev.Bytes(r.Addr, r.Size)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+4 <= len(b); i += 4 {
		var v float32
		if rng.Intn(5) == 0 {
			v = 2 + rng.Float32()*2 // full precision
		} else {
			v = 2 + float32(rng.Intn(512))/256 // tick quantised
		}
		binary.LittleEndian.PutUint32(b[i:], math.Float32bits(v))
	}
}

func trainTable(t *testing.T, dev *device.Device, r device.Region) *e2mc.Table {
	t.Helper()
	tr := e2mc.NewTrainer()
	r.BlockAddrs(func(addr uint64) {
		block, err := dev.Block(addr)
		if err != nil {
			t.Fatal(err)
		}
		tr.Sample(block)
	})
	tab, err := tr.Build(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestUncompressedBaseline(t *testing.T) {
	dev := device.New()
	r, _ := dev.Malloc("x", 4096, true, 16)
	p, err := New(dev, compress.MAG32, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Sync(r)
	b, comp := p.BurstsFor(r.Addr)
	if b != 4 || comp {
		t.Errorf("uncompressed block: bursts=%d compressed=%v", b, comp)
	}
}

// TestUnknownBlockDefaultsRaw: a block the pipeline never synced reads as
// raw, wherever it sits relative to the dense block table — with no table
// yet, past the table's end, and inside the table below a synced region.
func TestUnknownBlockDefaultsRaw(t *testing.T) {
	dev := device.New()
	p, _ := New(dev, compress.MAG32, nil, nil)
	if b, comp := p.BurstsFor(0xDEAD00); b != 4 || comp {
		t.Errorf("unknown block: bursts=%d compressed=%v", b, comp)
	}

	// BDI stores the zero-filled blocks in one burst, so a synced block is
	// told apart from the raw default.
	p, _ = New(dev, compress.MAG32, bdi.Codec{}, nil)
	unsynced, _ := dev.Malloc("unsynced", 4*compress.BlockSize, false, 0)
	synced, _ := dev.Malloc("synced", 4*compress.BlockSize, false, 0)
	p.Sync(synced)
	synced.BlockAddrs(func(addr uint64) {
		if b, comp := p.BurstsFor(addr); b != 1 || !comp {
			t.Errorf("synced zero block %#x: bursts=%d compressed=%v, want 1 compressed", addr, b, comp)
		}
	})
	for _, u := range []struct {
		name string
		addr uint64
	}{
		{"inside the table, never synced", unsynced.Addr},
		{"last unsynced block", unsynced.End() - compress.BlockSize},
		{"first block past the table", synced.End()},
		{"far past the table", synced.End() + 1<<30},
	} {
		if b, comp := p.BurstsFor(u.addr); b != 4 || comp {
			t.Errorf("%s (%#x): bursts=%d compressed=%v, want 4 raw", u.name, u.addr, b, comp)
		}
	}
}

func TestLosslessSyncDoesNotMutate(t *testing.T) {
	dev := device.New()
	r, _ := dev.Malloc("x", 64*1024, true, 16)
	fill(t, dev, r, 1)
	before := make([]byte, r.Size)
	bs, _ := dev.Bytes(r.Addr, r.Size)
	copy(before, bs)

	tab := trainTable(t, dev, r)
	p, err := New(dev, compress.MAG32, e2mc.New(tab), nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Sync(r)
	after, _ := dev.Bytes(r.Addr, r.Size)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("lossless sync mutated byte %d", i)
		}
	}
	if p.Stats().LossyBlocks != 0 {
		t.Errorf("lossless pipeline reported %d lossy blocks", p.Stats().LossyBlocks)
	}
	if got := p.Stats().Blocks; got != int64(r.Blocks()) {
		t.Errorf("synced %d blocks, want %d", got, r.Blocks())
	}
}

func TestSLCSyncMutatesOnlyApproxRegions(t *testing.T) {
	dev := device.New()
	ra, _ := dev.Malloc("approx", 64*1024, true, 16)
	re, _ := dev.Malloc("exact", 64*1024, false, 0)
	fill(t, dev, ra, 2)
	fill(t, dev, re, 3)
	tab := trainTable(t, dev, ra)

	lossy, err := slc.New(tab, slc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(dev, compress.MAG32, e2mc.New(tab), lossy)
	if err != nil {
		t.Fatal(err)
	}

	exactBefore := make([]byte, re.Size)
	eb, _ := dev.Bytes(re.Addr, re.Size)
	copy(exactBefore, eb)

	p.Sync(ra)
	p.Sync(re)

	eafter, _ := dev.Bytes(re.Addr, re.Size)
	for i := range exactBefore {
		if exactBefore[i] != eafter[i] {
			t.Fatalf("exact region mutated at byte %d", i)
		}
	}
	if p.Stats().LossyBlocks == 0 {
		t.Error("no lossy blocks on approximable quantised data; expected some")
	}
}

func TestBurstsReflectCompression(t *testing.T) {
	dev := device.New()
	r, _ := dev.Malloc("x", 64*1024, true, 16)
	fill(t, dev, r, 4)
	tab := trainTable(t, dev, r)
	p, _ := New(dev, compress.MAG32, e2mc.New(tab), nil)
	p.Sync(r)

	sawCompressed := false
	r.BlockAddrs(func(addr uint64) {
		b, comp := p.BurstsFor(addr)
		if b < 1 || b > 4 {
			t.Fatalf("bursts %d out of range", b)
		}
		if comp && b < 4 {
			sawCompressed = true
		}
	})
	if !sawCompressed {
		t.Error("no block compressed below 4 bursts")
	}
	st := p.Stats()
	if st.RawRatio() <= 1.0 {
		t.Errorf("raw ratio %.2f not > 1 on quantised data", st.RawRatio())
	}
	if st.EffectiveRatio() > st.RawRatio() {
		t.Errorf("effective ratio %.2f exceeds raw %.2f", st.EffectiveRatio(), st.RawRatio())
	}
}

func TestAboveMAGHistogram(t *testing.T) {
	dev := device.New()
	r, _ := dev.Malloc("x", 64*1024, true, 16)
	fill(t, dev, r, 5)
	tab := trainTable(t, dev, r)
	p, _ := New(dev, compress.MAG32, e2mc.New(tab), nil)
	p.Sync(r)
	st := p.Stats()
	var total int64
	for _, c := range st.AboveMAG {
		total += c
	}
	if total != st.Blocks {
		t.Errorf("histogram mass %d ≠ blocks %d", total, st.Blocks)
	}
	if len(st.AboveMAG) != 33 {
		t.Errorf("MAG32 histogram has %d bins, want 33", len(st.AboveMAG))
	}
}

func TestResyncUpdatesBursts(t *testing.T) {
	dev := device.New()
	r, _ := dev.Malloc("x", 4096, true, 16)
	fill(t, dev, r, 6)
	tab := trainTable(t, dev, r)
	p, _ := New(dev, compress.MAG32, e2mc.New(tab), nil)
	p.Sync(r)
	b1, _ := p.BurstsFor(r.Addr)

	// Overwrite with zeros: recompression must shrink the block.
	bs, _ := dev.Bytes(r.Addr, r.Size)
	for i := range bs {
		bs[i] = 0
	}
	p.Sync(r)
	b2, _ := p.BurstsFor(r.Addr)
	if b2 > b1 || b2 != 1 {
		t.Errorf("zeroed block bursts %d (was %d), want 1", b2, b1)
	}
}

// buildSLCPipeline constructs a device with one approximable region of
// quantised floats and an SLC pipeline over it.
func buildSLCPipeline(t *testing.T, seed int64) (*device.Device, device.Region, *Pipeline) {
	t.Helper()
	dev := device.New()
	r, _ := dev.Malloc("x", 256*1024, true, 16)
	fill(t, dev, r, seed)
	tab := trainTable(t, dev, r)
	lossy, err := slc.New(tab, slc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(dev, compress.MAG32, e2mc.New(tab), lossy)
	if err != nil {
		t.Fatal(err)
	}
	return dev, r, p
}

// TestParallelSyncMatchesSerial pins the contract of SetWorkers: any worker
// count produces bitwise-identical state — statistics, per-block geometry
// and the lossily mutated device image — including across repeated Syncs,
// where the §V-A write-back feedback loop makes later decisions depend on
// earlier mutations.
func TestParallelSyncMatchesSerial(t *testing.T) {
	devS, rS, ps := buildSLCPipeline(t, 21)
	for _, workers := range []int{2, 3, 8, 64} {
		devP, rP, pp := buildSLCPipeline(t, 21)
		pp.SetWorkers(workers)
		for round := 0; round < 3; round++ {
			if workers == 2 { // advance the serial reference once per round
				ps.Sync(rS)
			}
			pp.Sync(rP)
		}
		_ = devS
		if got, want := pp.Stats(), ps.Stats(); got.Blocks != want.Blocks ||
			got.LossyBlocks != want.LossyBlocks ||
			got.Uncompressed != want.Uncompressed ||
			got.RawBits != want.RawBits || got.EffBits != want.EffBits {
			t.Fatalf("workers=%d stats diverge: %+v vs serial %+v", workers, got, want)
		}
		for i, v := range pp.Stats().AboveMAG {
			if v != ps.Stats().AboveMAG[i] {
				t.Fatalf("workers=%d AboveMAG[%d] = %d, serial %d", workers, i, v, ps.Stats().AboveMAG[i])
			}
		}
		rS.BlockAddrs(func(addr uint64) {
			bs, cs := ps.BurstsFor(addr)
			bp, cp := pp.BurstsFor(addr)
			if bs != bp || cs != cp {
				t.Fatalf("workers=%d block %#x: parallel (%d,%v) vs serial (%d,%v)",
					workers, addr, bp, cp, bs, cs)
			}
		})
		ms, _ := devS.Bytes(rS.Addr, rS.Size)
		mp, _ := devP.Bytes(rP.Addr, rP.Size)
		for i := range ms {
			if ms[i] != mp[i] {
				t.Fatalf("workers=%d device memory diverges at byte %d", workers, i)
			}
		}
	}
}

// TestParallelSyncSmallRegion exercises the degenerate fan-outs: more
// workers than blocks, and a single-block region.
func TestParallelSyncSmallRegion(t *testing.T) {
	dev := device.New()
	r, _ := dev.Malloc("x", compress.BlockSize, true, 16)
	fill(t, dev, r, 9)
	tab := trainTable(t, dev, r)
	p, err := New(dev, compress.MAG32, e2mc.New(tab), nil)
	if err != nil {
		t.Fatal(err)
	}
	p.SetWorkers(16)
	p.Sync(r)
	if got := p.Stats().Blocks; got != 1 {
		t.Errorf("synced %d blocks, want 1", got)
	}
}

func TestInvalidMAG(t *testing.T) {
	if _, err := New(device.New(), 24, nil, nil); err == nil {
		t.Error("invalid MAG accepted")
	}
}

func TestPerRegionThresholds(t *testing.T) {
	dev := device.New()
	// Two approximable regions with different programmer thresholds: one
	// conservative (4 B) and one permissive (32 B).
	tight, _ := dev.Malloc("tight", 64*1024, true, 4)
	loose, _ := dev.Malloc("loose", 64*1024, true, 32)
	fill(t, dev, tight, 11)
	fill(t, dev, loose, 11) // identical data → decisions differ only by threshold

	tr := e2mc.NewTrainer()
	for _, r := range []device.Region{tight, loose} {
		r.BlockAddrs(func(addr uint64) {
			b, _ := dev.Block(addr)
			tr.Sample(b)
		})
	}
	tab, err := tr.Build(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	mkLossy := func(bits int) (compress.Codec, error) {
		return slc.New(tab, slc.Config{MAG: compress.MAG32, ThresholdBits: bits, Variant: slc.OPT})
	}
	def, err := mkLossy(16 * 8)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(dev, compress.MAG32, e2mc.New(tab), def)
	if err != nil {
		t.Fatal(err)
	}
	p.SetLossyFactory(mkLossy)

	p.Sync(tight)
	lossyTight := p.Stats().LossyBlocks
	p.Sync(loose)
	lossyLoose := p.Stats().LossyBlocks - lossyTight

	if lossyTight >= lossyLoose {
		t.Errorf("tight threshold produced %d lossy blocks, loose %d; want tight < loose",
			lossyTight, lossyLoose)
	}
	if lossyLoose == 0 {
		t.Error("loose threshold produced no lossy blocks")
	}
}
