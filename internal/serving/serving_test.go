package serving

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/compress"
	"repro/internal/compress/e2mc"
	"repro/internal/resultstore"
	"repro/internal/workloads"
)

// testData builds n blocks of compressible test bytes (the smooth ramps the
// codecs are built for, so every family actually exercises its encoder).
func testData(n int) []byte {
	data := make([]byte, n*compress.BlockSize)
	for i := range data {
		data[i] = byte((i / 4) % 97)
	}
	return data
}

// newTestCore builds a core with a small deterministic fan-out.
func newTestCore(maxInFlight int) *Core {
	return NewCore(Config{Workers: 2, MaxInFlight: maxInFlight})
}

func TestCompressDecompressRoundTripEveryCodec(t *testing.T) {
	core := newTestCore(0)
	data := testData(8)
	for _, name := range compress.Names() {
		t.Run(name, func(t *testing.T) {
			info, _ := compress.Lookup(name)
			req := &CompressRequest{Codec: name, Data: data}
			if info.NeedsTable {
				req.Profile = "TP"
			}
			cres, err := core.Compress(context.Background(), req)
			if err != nil {
				t.Fatalf("compress: %v", err)
			}
			if len(cres.Blocks) != 8 {
				t.Fatalf("got %d blocks, want 8", len(cres.Blocks))
			}
			dres, err := core.Decompress(context.Background(), &DecompressRequest{
				Codec: name, Profile: req.Profile, Blocks: cres.Blocks,
			})
			if err != nil {
				t.Fatalf("decompress: %v", err)
			}
			if len(dres.Data) != len(data) {
				t.Fatalf("got %d bytes back, want %d", len(dres.Data), len(data))
			}
			// Lossy codecs return an approximation; everything else must
			// round-trip exactly.
			if !info.Lossy && !bytes.Equal(dres.Data, data) {
				t.Fatal("lossless round trip is not byte-identical")
			}
		})
	}
}

// TestBoundedCodecServingHonoursBound pushes a float field through an sz
// compress/decompress request pair with an explicit error bound — the
// codec-profile path cmd/slcd exposes — and checks every reconstructed value
// against the bound.
func TestBoundedCodecServingHonoursBound(t *testing.T) {
	core := newTestCore(0)
	const bound = 1e-4
	const n = 8 * compress.BlockSize / 4
	data := make([]byte, n*4)
	for i := 0; i < n; i++ {
		v := float32(math.Sin(float64(i) / 50))
		binary.LittleEndian.PutUint32(data[i*4:], math.Float32bits(v))
	}
	cres, err := core.Compress(context.Background(), &CompressRequest{
		Codec: "sz-lorenzo", Data: data, ErrorBound: bound,
	})
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	dres, err := core.Decompress(context.Background(), &DecompressRequest{
		Codec: "sz-lorenzo", Blocks: cres.Blocks, ErrorBound: bound,
	})
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if len(dres.Data) != len(data) {
		t.Fatalf("got %d bytes back, want %d", len(dres.Data), len(data))
	}
	for i := 0; i < n; i++ {
		o := math.Float32frombits(binary.LittleEndian.Uint32(data[i*4:]))
		g := math.Float32frombits(binary.LittleEndian.Uint32(dres.Data[i*4:]))
		if diff := math.Abs(float64(g) - float64(o)); diff > bound {
			t.Fatalf("value %d: |%g − %g| = %g exceeds bound %g", i, g, o, diff, bound)
		}
	}
	if _, err := core.Compress(context.Background(), &CompressRequest{
		Codec: "sz-lorenzo", Data: data, ErrorBound: -1,
	}); err == nil {
		t.Fatal("compress accepted a negative error bound")
	}
}

// TestWarmTableZeroRetrains pins the builder cache: the first e2mc request
// trains the table, every subsequent request reuses it.
func TestWarmTableZeroRetrains(t *testing.T) {
	core := newTestCore(0)
	data := testData(4)
	for i := 0; i < 3; i++ {
		if _, err := core.Compress(context.Background(), &CompressRequest{
			Codec: "e2mc", Profile: "TP", Data: data,
		}); err != nil {
			t.Fatalf("compress %d: %v", i, err)
		}
	}
	st := core.Tables.Stats()
	if st.Retrains != 1 {
		t.Fatalf("3 warm requests retrained %d times, want exactly 1 (the cold train)", st.Retrains)
	}
}

// TestStoreSkipsRetrainAcrossCores pins the disk tier: a second core sharing
// the first's result store serves the table from disk with zero retrains.
func TestStoreSkipsRetrainAcrossCores(t *testing.T) {
	dir := t.TempDir()
	data := testData(4)
	// compressOn runs one e2mc request on a fresh core over the store in
	// dir and returns the core's table counters and its store's counters.
	compressOn := func() (TableStats, resultstore.Stats) {
		t.Helper()
		st, err := resultstore.Open(dir, resultstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		core := newTestCore(0)
		core.SetStore(st)
		if _, err := core.Compress(context.Background(), &CompressRequest{
			Codec: "e2mc", Profile: "TP", Data: data,
		}); err != nil {
			t.Fatal(err)
		}
		return core.Tables.Stats(), st.Stats()
	}
	if s, _ := compressOn(); s.Retrains != 1 {
		t.Fatalf("cold core retrained %d times, want 1", s.Retrains)
	}
	s, _ := compressOn()
	if s.Retrains != 0 {
		t.Fatalf("warm core retrained %d times, want 0 (table is on disk)", s.Retrains)
	}
	if s.DiskHits != 1 {
		t.Fatalf("warm core disk hits = %d, want 1", s.DiskHits)
	}

	// A table record in the older v2 layout (a gap-interval byte after
	// maxLen) no longer decodes: a fresh core retrains once and rewrites
	// the record in the current layout, which the next core then hits.
	st, err := resultstore.Open(dir, resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByName("TP")
	if err != nil {
		t.Fatal(err)
	}
	key, err := st.Key(kindTable, tableMaterial(w))
	if err != nil {
		t.Fatal(err)
	}
	var rec []byte
	ok, err := st.Get(key, func(p []byte) error { rec = p; return nil })
	if err != nil || !ok {
		t.Fatalf("table record missing from the store (ok=%v, err=%v)", ok, err)
	}
	v2 := append([]byte{2, rec[1], 4}, rec[2:]...)
	if err := st.PutBytes(key, kindTable, "bin", v2); err != nil {
		t.Fatal(err)
	}
	// The store counts the stale record as the miss it is: the core
	// retrained, so no hit, and the record is dropped as bad.
	s, ss := compressOn()
	if s.Retrains != 1 || s.DiskHits != 0 {
		t.Fatalf("core over a v2 record: retrains %d, disk hits %d; want 1, 0", s.Retrains, s.DiskHits)
	}
	if ss.Hits != 0 || ss.Misses != 1 || ss.BadRecords != 1 {
		t.Fatalf("store over a v2 record: hits %d, misses %d, bad records %d; want 0, 1, 1",
			ss.Hits, ss.Misses, ss.BadRecords)
	}
	var tab e2mc.Table
	if ok, err := st.Get(key, tab.UnmarshalBinary); err != nil || !ok {
		t.Fatalf("retrained table record missing or undecodable (ok=%v, err=%v)", ok, err)
	}
	if s, ss := compressOn(); s.Retrains != 0 || s.DiskHits != 1 || ss.Hits != 1 || ss.Misses != 0 {
		t.Fatalf("core after the rewrite: retrains %d, disk hits %d, store hits %d, misses %d; want 0, 1, 1, 0",
			s.Retrains, s.DiskHits, ss.Hits, ss.Misses)
	}
}

func TestBadRequestsAreRequestErrors(t *testing.T) {
	core := newTestCore(0)
	cases := []struct {
		name string
		call func() error
		want string
	}{
		{"unknown codec", func() error {
			_, err := core.Compress(context.Background(), &CompressRequest{Codec: "no-such", Data: testData(1)})
			return err
		}, "unknown codec"},
		{"bad geometry", func() error {
			_, err := core.Compress(context.Background(), &CompressRequest{Codec: "bdi", Data: make([]byte, 100)})
			return err
		}, "block size"},
		{"empty data", func() error {
			_, err := core.Compress(context.Background(), &CompressRequest{Codec: "bdi"})
			return err
		}, "empty"},
		{"invalid MAG", func() error {
			_, err := core.Compress(context.Background(), &CompressRequest{Codec: "bdi", MAG: 7, Data: testData(1)})
			return err
		}, "invalid MAG"},
		{"missing profile", func() error {
			_, err := core.Compress(context.Background(), &CompressRequest{Codec: "e2mc", Data: testData(1)})
			return err
		}, "profile"},
		{"unknown profile", func() error {
			_, err := core.Compress(context.Background(), &CompressRequest{Codec: "e2mc", Profile: "nope", Data: testData(1)})
			return err
		}, "unknown profile"},
		{"no blocks", func() error {
			_, err := core.Decompress(context.Background(), &DecompressRequest{Codec: "bdi"})
			return err
		}, "no blocks"},
		{"evaluate without target", func() error {
			_, err := core.Evaluate(context.Background(), &EvaluateRequest{Codec: "bdi"})
			return err
		}, "data or a profile"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			var reqErr *RequestError
			if !errors.As(err, &reqErr) {
				t.Fatalf("got %v (%T), want a RequestError", err, err)
			}
			if !bytes.Contains([]byte(err.Error()), []byte(tc.want)) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestHostilePayloadIsRejectedNotFatal feeds garbage bitstreams to decode:
// the daemon must answer with a RequestError, never crash on a panicking
// codec goroutine.
func TestHostilePayloadIsRejectedNotFatal(t *testing.T) {
	core := newTestCore(0)
	// Warm the table so decode reaches the codec.
	if _, err := core.Compress(context.Background(), &CompressRequest{
		Codec: "e2mc", Profile: "TP", Data: testData(1),
	}); err != nil {
		t.Fatal(err)
	}
	for _, codec := range []string{"e2mc", "bdi", "bpc"} {
		t.Run(codec, func(t *testing.T) {
			profile := ""
			if info, _ := compress.Lookup(codec); info.NeedsTable {
				profile = "TP"
			}
			blocks := []Block{{Bits: 64, Payload: []byte{0xff, 0xde, 0xad, 0xbe, 0xef, 0x00, 0x11, 0x22}}}
			_, err := core.Decompress(context.Background(), &DecompressRequest{
				Codec: codec, Profile: profile, Blocks: blocks,
			})
			if err == nil {
				// Some codecs decode any bitstream to something; no error is
				// acceptable, crashing is not.
				return
			}
			var reqErr *RequestError
			if !errors.As(err, &reqErr) {
				t.Fatalf("hostile payload: got %v (%T), want a RequestError", err, err)
			}
		})
	}
}

// TestSaturationRejectsImmediately pins the backpressure contract: with every
// in-flight slot held, new work is rejected with ErrSaturated instead of
// queueing, and the slot's release restores service.
func TestSaturationRejectsImmediately(t *testing.T) {
	core := newTestCore(1)
	release, err := core.acquire()
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.Compress(context.Background(), &CompressRequest{Codec: "bdi", Data: testData(1)})
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("got %v, want ErrSaturated", err)
	}
	release()
	if _, err := core.Compress(context.Background(), &CompressRequest{Codec: "bdi", Data: testData(1)}); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

// TestSaturationUnderConcurrencyDoesNotDeadlock hammers a small core from
// many goroutines (run under -race in CI): every call must return — success
// or ErrSaturated — and the core must end idle.
func TestSaturationUnderConcurrencyDoesNotDeadlock(t *testing.T) {
	core := newTestCore(2)
	data := testData(4)
	var wg sync.WaitGroup
	var ok, saturated, other int64
	var mu sync.Mutex
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_, err := core.Compress(context.Background(), &CompressRequest{Codec: "bdi", Data: data})
				mu.Lock()
				switch {
				case err == nil:
					ok++
				case errors.Is(err, ErrSaturated):
					saturated++
				default:
					other++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if other != 0 {
		t.Fatalf("%d unexpected errors", other)
	}
	if ok == 0 {
		t.Fatal("every request was rejected; admission is wedged")
	}
	if n := core.InFlight(); n != 0 {
		t.Fatalf("%d requests still admitted after all returned", n)
	}
}

// TestDrainRefusesNewWorkCompletesOldWork runs compressions concurrently
// with StartDrain (under -race in CI): admitted work finishes, new work gets
// ErrDraining, and nothing deadlocks.
func TestDrainRefusesNewWorkCompletesOldWork(t *testing.T) {
	core := newTestCore(8)
	data := testData(64)
	var wg sync.WaitGroup
	results := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, results[g] = core.Compress(context.Background(), &CompressRequest{Codec: "bdi", Data: data})
		}(g)
	}
	core.StartDrain()
	wg.Wait()
	for g, err := range results {
		if err != nil && !errors.Is(err, ErrDraining) {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if _, err := core.Compress(context.Background(), &CompressRequest{Codec: "bdi", Data: data}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain request: got %v, want ErrDraining", err)
	}
	if !core.Draining() {
		t.Fatal("Draining() = false after StartDrain")
	}
	if n := core.InFlight(); n != 0 {
		t.Fatalf("%d requests still admitted after drain", n)
	}
}

func TestEvaluateDataPath(t *testing.T) {
	core := newTestCore(0)
	res, err := core.Evaluate(context.Background(), &EvaluateRequest{
		Codec: "bdi", Data: testData(32),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != 32 {
		t.Fatalf("evaluated %d blocks, want 32", res.Blocks)
	}
	if res.RawRatio < 1 {
		t.Fatalf("raw ratio %v < 1 on compressible data", res.RawRatio)
	}
}

func TestEvaluateProfilePath(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full workload")
	}
	core := newTestCore(0)
	res, err := core.Evaluate(context.Background(), &EvaluateRequest{
		Codec: "e2mc", Profile: "TP",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks == 0 {
		t.Fatal("profile evaluation touched no blocks")
	}
}

func TestCancelledContextStopsBatch(t *testing.T) {
	core := newTestCore(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := core.Compress(ctx, &CompressRequest{Codec: "bdi", Data: testData(256)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestMetricsRenderDeterministically(t *testing.T) {
	core := newTestCore(0)
	if _, err := core.Compress(context.Background(), &CompressRequest{Codec: "bdi", Data: testData(2)}); err != nil {
		t.Fatal(err)
	}
	core.Metrics.Observe("slcd_request_seconds", `endpoint="compress"`, 0.002)
	var a, b bytes.Buffer
	core.Metrics.WriteText(&a, core.Gauges())
	core.Metrics.WriteText(&b, core.Gauges())
	if a.String() != b.String() {
		t.Fatal("two renders of the same state differ")
	}
	for _, want := range []string{
		`slcd_blocks_total{endpoint="compress"} 2`,
		`slcd_request_seconds_bucket{endpoint="compress",le="0.005"} 1`,
		`slcd_request_seconds_count{endpoint="compress"} 1`,
		"slcd_inflight 0",
		"slcd_draining 0",
		"slcd_table_retrains_total 0",
	} {
		if !bytes.Contains(a.Bytes(), []byte(want)) {
			t.Fatalf("metrics output lacks %q:\n%s", want, a.String())
		}
	}
}

// TestResolveMemoisesPairs pins the per-codec builder cache at the resolve
// layer: one flight slot per distinct configuration.
func TestResolveMemoisesPairs(t *testing.T) {
	core := newTestCore(0)
	a, err := core.resolve("bdi", "", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.resolve(" BDI ", "", 32, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.lossless != b.lossless {
		t.Fatal("equivalent configurations built distinct codecs")
	}
	if core.codecs.Len() != 1 {
		t.Fatalf("%d cached pairs, want 1", core.codecs.Len())
	}
	// A distinct error bound is a distinct configuration.
	if _, err := core.resolve("sz-lorenzo", "", 0, 0, 1e-4); err != nil {
		t.Fatal(err)
	}
	if _, err := core.resolve("sz-lorenzo", "", 0, 0, 1e-2); err != nil {
		t.Fatal(err)
	}
	if core.codecs.Len() != 3 {
		t.Fatalf("%d cached pairs, want 3", core.codecs.Len())
	}
	if _, err := core.resolve("sz-lorenzo", "", 0, 0, math.Inf(1)); err == nil {
		t.Fatal("resolve accepted an infinite error bound")
	}
}

func TestConcurrentSameCodecBuildsOnce(t *testing.T) {
	core := NewCore(Config{Workers: 1, MaxInFlight: 64})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, errs[g] = core.Compress(context.Background(), &CompressRequest{
				Codec: "e2mc", Profile: "TP", Data: testData(1),
			})
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if s := core.Tables.Stats(); s.Retrains != 1 {
		t.Fatalf("8 concurrent cold requests trained %d tables, want 1", s.Retrains)
	}
}

// TestIdentityCodecServes pins the raw baseline: every registered codec is
// servable, including the identity entry.
func TestIdentityCodecServes(t *testing.T) {
	var identity string
	for _, name := range compress.Names() {
		if info, _ := compress.Lookup(name); info.Identity {
			identity = name
			break
		}
	}
	if identity == "" {
		t.Skip("no identity codec registered")
	}
	core := newTestCore(0)
	data := testData(2)
	cres, err := core.Compress(context.Background(), &CompressRequest{Codec: identity, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	if cres.RawRatio != 1 {
		t.Fatalf("identity raw ratio %v, want 1", cres.RawRatio)
	}
	dres, err := core.Decompress(context.Background(), &DecompressRequest{Codec: identity, Blocks: cres.Blocks})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dres.Data, data) {
		t.Fatal("identity round trip altered the data")
	}
}

// TestWorkersBoundsBatchFanOut sanity-checks the worker plumbing across
// configurations (1, 2, many) on a batch bigger than the pool.
func TestWorkersBoundsBatchFanOut(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		core := NewCore(Config{Workers: workers, MaxInFlight: 4})
		data := testData(64)
		cres, err := core.Compress(context.Background(), &CompressRequest{Codec: "bdi", Data: data})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		dres, err := core.Decompress(context.Background(), &DecompressRequest{Codec: "bdi", Blocks: cres.Blocks})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(dres.Data, data) {
			t.Fatalf("workers=%d: round trip mismatch", workers)
		}
	}
}

// TestForBlocksReportsLowestIndex pins deterministic error selection under
// concurrency.
func TestForBlocksReportsLowestIndex(t *testing.T) {
	core := NewCore(Config{Workers: 8, MaxInFlight: 4})
	err := core.forBlocks(context.Background(), 64, func(i int) error {
		if i%3 == 1 {
			return fmt.Errorf("block %d failed", i)
		}
		return nil
	})
	if err == nil || err.Error() != "block 1 failed" {
		t.Fatalf("got %v, want the lowest-index failure (block 1)", err)
	}
}

// TestForBlocksCancelStopsEverySpan pins how fast a cancelled batch stops:
// every worker checks the context before each block, so once cancel has
// returned each other worker starts at most one more block, and the batch
// returns the context's error.
func TestForBlocksCancelStopsEverySpan(t *testing.T) {
	const n, cancelAt = 4096, 100
	for _, workers := range []int{2, 8} {
		core := NewCore(Config{Workers: workers, MaxInFlight: 4})
		ctx, cancel := context.WithCancel(context.Background())
		var calls, atCancel atomic.Int64
		err := core.forBlocks(ctx, n, func(int) error {
			if calls.Add(1) == cancelAt {
				cancel()
				atCancel.Store(calls.Load())
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if late := calls.Load() - atCancel.Load(); late >= int64(workers) {
			t.Errorf("workers=%d: %d blocks started after cancel returned, want fewer than %d", workers, late, workers)
		}
	}
}

// TestForBlocksPanicInLaterSpan pins the panic recovery across spans: panics
// in a span other than the caller's become RequestErrors, and the one
// returned is the lowest block index's, even when a later span fails too.
func TestForBlocksPanicInLaterSpan(t *testing.T) {
	const n = 64
	for _, workers := range []int{2, 8} {
		core := NewCore(Config{Workers: workers, MaxInFlight: 4})
		err := core.forBlocks(context.Background(), n, func(i int) error {
			switch i {
			case 41, 44, 63:
				panic(fmt.Sprintf("hostile block %d", i))
			case 50:
				return fmt.Errorf("block %d failed", i)
			}
			return nil
		})
		var reqErr *RequestError
		if !errors.As(err, &reqErr) {
			t.Fatalf("workers=%d: got %v (%T), want a RequestError", workers, err, err)
		}
		if want := "serving: block 41: invalid payload: hostile block 41"; err.Error() != want {
			t.Errorf("workers=%d: got %q, want %q", workers, err, want)
		}
	}
}
