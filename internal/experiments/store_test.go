package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/resultstore"
	"repro/internal/slc"
	"repro/internal/workloads"
)

func openStore(t *testing.T, dir string) *resultstore.Store {
	t.Helper()
	s, err := resultstore.Open(dir, resultstore.Options{Fingerprint: "test-fp"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// computeCount wires a Runner's Progress to count every non-memoised
// computation (golden runs, table training, full and compression-only
// cells).
func computeCount(r *Runner) *int {
	n := new(int)
	var mu sync.Mutex
	r.Progress = func(s string) {
		for _, p := range []string{"golden run:", "training table:", "run:", "compress:"} {
			if strings.HasPrefix(s, p) {
				mu.Lock()
				*n++
				mu.Unlock()
				return
			}
		}
	}
	return n
}

// TestStoreWarmRunRecomputesNothing is the acceptance property of the
// result store: after a cold run populates the directory, a fresh Runner
// over the same matrix performs zero golden/table/cell computations and
// returns bitwise-identical results.
func TestStoreWarmRunRecomputesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("runner integration in -short mode")
	}
	dir := t.TempDir()
	w := tpWorkload(t)
	cells := []Cell{
		{w, BaselineConfig("raw", compress.MAG32)},
		{w, E2MCConfig(compress.MAG32)},
		{w, TSLCConfig(slc.OPT, compress.MAG32, DefaultThresholdBits)},
	}
	compCell := Cell{w, BaselineConfig("bdi", compress.MAG32)}

	cold := NewRunner()
	cold.Store = openStore(t, dir)
	coldN := computeCount(cold)
	coldRes, err := cold.RunAll(cells, 2)
	if err != nil {
		t.Fatal(err)
	}
	coldComp, err := cold.CompressionOnly(compCell.Workload, compCell.Config)
	if err != nil {
		t.Fatal(err)
	}
	if *coldN == 0 {
		t.Fatal("cold run computed nothing; store test is vacuous")
	}

	warm := NewRunner()
	warm.Store = openStore(t, dir)
	warmN := computeCount(warm)
	warmRes, err := warm.RunAll(cells, 2)
	if err != nil {
		t.Fatal(err)
	}
	warmComp, err := warm.CompressionOnly(compCell.Workload, compCell.Config)
	if err != nil {
		t.Fatal(err)
	}
	if *warmN != 0 {
		t.Errorf("warm run recomputed %d times, want 0", *warmN)
	}
	if !reflect.DeepEqual(warmRes, coldRes) {
		t.Error("warm results differ from cold results")
	}
	if !reflect.DeepEqual(warmComp, coldComp) {
		t.Error("warm compression-only result differs from cold")
	}
	st := warm.StoreStats()
	if st == nil || st.Hits != int64(len(cells)+1) || st.Misses != 0 {
		t.Errorf("warm store stats = %+v, want %d hits and 0 misses", st, len(cells)+1)
	}
}

// TestStoreCorruptionRecomputes truncates every record of a populated
// store; a warm runner must detect the damage, recompute, and still return
// the original results.
func TestStoreCorruptionRecomputes(t *testing.T) {
	if testing.Short() {
		t.Skip("runner integration in -short mode")
	}
	dir := t.TempDir()
	w := tpWorkload(t)
	cfg := E2MCConfig(compress.MAG32)

	cold := NewRunner()
	cold.Store = openStore(t, dir)
	want, err := cold.Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var truncated int
	filepath.Walk(filepath.Join(dir, "objects"), func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return nil
		}
		if werr := os.Truncate(path, fi.Size()/2); werr != nil {
			t.Fatal(werr)
		}
		truncated++
		return nil
	})
	if truncated == 0 {
		t.Fatal("cold run left no store records to corrupt")
	}

	warm := NewRunner()
	warm.Store = openStore(t, dir)
	n := computeCount(warm)
	got, err := warm.Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *n == 0 {
		t.Error("truncated records were trusted: warm run computed nothing")
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("recomputed result differs from original")
	}
	if st := warm.StoreStats(); st.BadRecords == 0 {
		t.Errorf("store stats report no bad records after truncation: %+v", st)
	}
}

// TestStoreKeySensitivity pins the cell addressing: every knob that changes
// what a cell measures must change its key, and assembling the same cell
// twice must not.
func TestStoreKeySensitivity(t *testing.T) {
	w, err := workloads.ByName("TP")
	if err != nil {
		t.Fatal(err)
	}
	nn, err := workloads.ByName("NN")
	if err != nil {
		t.Fatal(err)
	}
	base := NewRunner()
	key := func(r *Runner, w workloads.Workload, cfg Config) resultstore.Key {
		t.Helper()
		k, err := resultstore.NewKey("fp", kindCell, cellMaterial(w, cfg, r.simConfig(cfg)))
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	cfg := TSLCConfig(slc.OPT, compress.MAG32, DefaultThresholdBits)
	k0 := key(base, w, cfg)
	if again := key(base, w, cfg); again != k0 {
		t.Error("same cell keyed twice hashes differently")
	}

	simw := NewRunner()
	simw.SimWorkers = 8
	variants := map[string]resultstore.Key{
		"MAG":         key(base, w, TSLCConfig(slc.OPT, compress.MAG64, DefaultThresholdBits)),
		"threshold":   key(base, w, TSLCConfig(slc.OPT, compress.MAG32, 2*DefaultThresholdBits)),
		"codec":       key(base, w, TSLCConfig(slc.PRED, compress.MAG32, DefaultThresholdBits)),
		"workload":    key(base, nn, cfg),
		"sim workers": key(simw, w, cfg),
	}
	seen := map[resultstore.Key]string{k0: "base"}
	for name, k := range variants {
		if prev, dup := seen[k]; dup {
			t.Errorf("changing %s does not change the cell key (collides with %s)", name, prev)
		}
		seen[k] = name
	}
}

// TestStoreSharedByConcurrentRunners races two store-backed Runners (as two
// slcbench processes would) over one directory under -race: no corruption,
// and a subsequent warm runner sees a fully valid store.
func TestStoreSharedByConcurrentRunners(t *testing.T) {
	if testing.Short() {
		t.Skip("runner integration in -short mode")
	}
	dir := t.TempDir()
	w := tpWorkload(t)
	cells := []Cell{
		{w, BaselineConfig("raw", compress.MAG32)},
		{w, E2MCConfig(compress.MAG32)},
	}

	serial := NewRunner()
	want := make([]RunResult, len(cells))
	for i, c := range cells {
		res, err := serial.Run(c.Workload, c.Config)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	var wg sync.WaitGroup
	results := make([][]RunResult, 2)
	errs := make([]error, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := NewRunner()
			r.Store = openStore(t, dir)
			results[i], errs[i] = r.RunAll(cells, 2)
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Errorf("concurrent runner %d diverged from serial results", i)
		}
	}

	warm := NewRunner()
	warm.Store = openStore(t, dir)
	n := computeCount(warm)
	got, err := warm.RunAll(cells, 2)
	if err != nil {
		t.Fatal(err)
	}
	if *n != 0 {
		t.Errorf("store left by racing runners caused %d recomputations", *n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("warm results after concurrent population differ from serial")
	}
}
