package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// getBytes reads a record's raw payload through Get.
func getBytes(s *Store, k Key) (payload []byte, ok bool, err error) {
	ok, err = s.Get(k, func(p []byte) error { payload = p; return nil })
	return payload, ok, err
}

// getJSON decodes a JSON record into v through Get.
func getJSON(s *Store, k Key, v any) (bool, error) {
	return s.Get(k, func(p []byte) error { return json.Unmarshal(p, v) })
}

// getGob decodes a gob record into v through Get.
func getGob(s *Store, k Key, v any) (bool, error) {
	return s.Get(k, func(p []byte) error { return gob.NewDecoder(bytes.NewReader(p)).Decode(v) })
}

func openTestStore(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Fingerprint == "" {
		opts.Fingerprint = "test-fp"
	}
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestKeyCanonicalisation pins the addressing contract: assembly order
// never matters, every field of the material matters, and so do the kind
// and the code fingerprint.
func TestKeyCanonicalisation(t *testing.T) {
	base := Material{
		"workload":  "tp-0123",
		"codec":     "tslc-opt",
		"mag":       32,
		"threshold": 128,
		"workers":   4,
	}
	permuted := Material{}
	for _, k := range []string{"workers", "threshold", "mag", "codec", "workload"} {
		permuted[k] = base[k]
	}
	k1, err := NewKey("fp", "cell", base)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := NewKey("fp", "cell", permuted)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("permuted-but-equal material hashes differ: %s vs %s", k1, k2)
	}

	change := func(field string, v any) Material {
		m := Material{}
		for k, val := range base {
			m[k] = val
		}
		m[field] = v
		return m
	}
	variants := map[string]Material{
		"mag":        change("mag", 64),
		"threshold":  change("threshold", 256),
		"workers":    change("workers", 1),
		"codec name": change("codec", "e2mc"),
		"workload":   change("workload", "nn-4567"),
		"extra knob": change("new-field", true),
	}
	seen := map[Key]string{k1: "base"}
	for name, m := range variants {
		k, err := NewKey("fp", "cell", m)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("changing %s collides with %s", name, prev)
		}
		seen[k] = name
	}
	// Kind and fingerprint (which carries the schema/code generation) are
	// part of the address too.
	if k, _ := NewKey("fp", "comp", base); k == k1 {
		t.Error("kind does not affect the key")
	}
	if k, _ := NewKey("fp2", "cell", base); k == k1 {
		t.Error("code fingerprint does not affect the key")
	}
	// Nested structures hash by content as well.
	type cfg struct{ A, B int }
	n1, _ := NewKey("fp", "cell", Material{"cfg": cfg{1, 2}})
	n2, _ := NewKey("fp", "cell", Material{"cfg": cfg{1, 3}})
	if n1 == n2 {
		t.Error("nested struct field change does not affect the key")
	}
}

func TestStoreRoundTripAndStats(t *testing.T) {
	s := openTestStore(t, Options{})
	key, err := s.Key("cell", Material{"x": 1})
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		Name string
		Vals []float64
	}
	want := rec{"tp", []float64{1.5, -0.25, 3e-300}}

	var missed rec
	if ok, err := getJSON(s, key, &missed); err != nil || ok {
		t.Fatalf("get before put: ok=%v err=%v", ok, err)
	}
	if err := s.PutJSON(key, "cell", want); err != nil {
		t.Fatal(err)
	}
	var got rec
	if ok, err := getJSON(s, key, &got); err != nil || !ok {
		t.Fatalf("get after put: ok=%v err=%v", ok, err)
	} else if got.Name != want.Name || len(got.Vals) != 3 || got.Vals[2] != want.Vals[2] {
		t.Errorf("round trip mangled record: %+v", got)
	}

	gkey, _ := s.Key("golden", Material{"w": "tp"})
	golden := []float64{1, 2.5, -7}
	if err := s.PutGob(gkey, "golden", golden); err != nil {
		t.Fatal(err)
	}
	var gout []float64
	if ok, err := getGob(s, gkey, &gout); err != nil || !ok {
		t.Fatalf("gob get: ok=%v err=%v", ok, err)
	}
	for i := range golden {
		if gout[i] != golden[i] {
			t.Errorf("gob round trip: %v != %v", gout, golden)
		}
	}

	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Puts != 2 || st.BadRecords != 0 {
		t.Errorf("stats = %+v, want 2 hits, 1 miss, 2 puts", st)
	}
}

// TestCorruptRecordsAreMissesNotTrusted flips, truncates and garbles record
// files; every form of damage must surface as a recomputable miss, never as
// decoded data.
func TestCorruptRecordsAreMissesNotTrusted(t *testing.T) {
	payload := []byte(`{"Name":"good"}`)
	corruptions := map[string]func([]byte) []byte{
		"payload bit flip": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-2] ^= 0x40
			return c
		},
		"truncated payload": func(b []byte) []byte { return b[:len(b)-4] },
		"truncated header":  func(b []byte) []byte { return b[:8] },
		"no header line":    func([]byte) []byte { return []byte("not a record at all") },
		"empty file":        func([]byte) []byte { return nil },
		"wrong schema": func(b []byte) []byte {
			cur := []byte(fmt.Sprintf(`{"v":%d`, SchemaVersion))
			return bytes.Replace(b, cur, []byte(`{"v":9999`), 1)
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			s := openTestStore(t, Options{})
			key, _ := s.Key("cell", Material{"case": name})
			if err := s.PutBytes(key, "cell", "json", payload); err != nil {
				t.Fatal(err)
			}
			path := s.objectPath(key)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(data), 0o666); err != nil {
				t.Fatal(err)
			}
			var out struct{ Name string }
			ok, err := getJSON(s, key, &out)
			if err != nil {
				t.Fatalf("corrupt record returned error instead of miss: %v", err)
			}
			if ok {
				t.Fatalf("corrupt record trusted: decoded %+v", out)
			}
			if st := s.Stats(); st.BadRecords != 1 {
				t.Errorf("BadRecords = %d, want 1", st.BadRecords)
			}
			if _, serr := os.Stat(path); !os.IsNotExist(serr) {
				t.Error("corrupt record file not deleted")
			}
			// The slot is rewritable and then readable again.
			if err := s.PutBytes(key, "cell", "json", payload); err != nil {
				t.Fatal(err)
			}
			if ok, err := getJSON(s, key, &out); err != nil || !ok || out.Name != "good" {
				t.Fatalf("recompute-then-reread failed: ok=%v err=%v out=%+v", ok, err, out)
			}
		})
	}
}

// TestUndecodableJSONIsMiss covers schema drift: a valid record whose
// payload no longer decodes into the caller's type is a miss.
func TestUndecodableJSONIsMiss(t *testing.T) {
	s := openTestStore(t, Options{})
	key, _ := s.Key("cell", Material{})
	if err := s.PutBytes(key, "cell", "json", []byte(`{"Name": ["wrong","shape"]}`)); err != nil {
		t.Fatal(err)
	}
	var out struct{ Name string }
	if ok, err := getJSON(s, key, &out); err != nil || ok {
		t.Fatalf("undecodable payload: ok=%v err=%v", ok, err)
	}
	// The counters must reflect that the caller will recompute: a decode
	// failure is a miss, never a hit (the warm-run acceptance check reads
	// exactly these numbers).
	if st := s.Stats(); st.Hits != 0 || st.Misses != 1 || st.BadRecords != 1 {
		t.Errorf("decode failure counted as hits=%d misses=%d bad=%d, want 0/1/1",
			st.Hits, st.Misses, st.BadRecords)
	}
}

func TestLRUGC(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fingerprint: "fp", MaxBytes: 600})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{'x'}, 100)
	var keys []Key
	for i := 0; i < 8; i++ {
		k, _ := s.Key("cell", Material{"i": i})
		keys = append(keys, k)
		if err := s.PutBytes(k, "cell", "bin", payload); err != nil {
			t.Fatal(err)
		}
	}
	// Records are ~180 bytes each; a 600-byte cap holds only the most
	// recent three. The early puts must be gone, the last must survive.
	var survivors int
	for _, k := range keys {
		if _, ok, err := getBytes(s, k); err != nil {
			t.Fatal(err)
		} else if ok {
			survivors++
		}
	}
	if survivors == 0 || survivors >= 8 {
		t.Errorf("LRU GC kept %d of 8 records under a 600-byte cap", survivors)
	}
	if _, ok, _ := getBytes(s, keys[len(keys)-1]); !ok {
		t.Error("most recent record was evicted")
	}
	if _, ok, _ := getBytes(s, keys[0]); ok {
		t.Error("least recent record survived past the cap")
	}
}

func TestClear(t *testing.T) {
	s := openTestStore(t, Options{})
	k, _ := s.Key("cell", Material{})
	if err := s.PutBytes(k, "cell", "bin", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := s.Clear(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := getBytes(s, k); err != nil || ok {
		t.Fatalf("record survived Clear: ok=%v err=%v", ok, err)
	}
	if err := s.PutBytes(k, "cell", "bin", []byte("data")); err != nil {
		t.Fatalf("store unusable after Clear: %v", err)
	}
}

// TestGetHitKeepsRecordThroughEviction pins the LRU order: a hit refreshes
// a record's position, so the oldest record, once read, outlives the records
// written after it when later puts force eviction.
func TestGetHitKeepsRecordThroughEviction(t *testing.T) {
	s := openTestStore(t, Options{MaxBytes: 700})
	payload := bytes.Repeat([]byte{'x'}, 100)
	put := func(i int) Key {
		k, _ := s.Key("cell", Material{"i": i})
		if err := s.PutBytes(k, "cell", "bin", payload); err != nil {
			t.Fatal(err)
		}
		return k
	}
	// Records are 218 bytes each: three fit under the cap.
	oldest, second, third := put(0), put(1), put(2)
	if _, ok, err := getBytes(s, oldest); err != nil || !ok {
		t.Fatalf("get oldest: ok=%v err=%v", ok, err)
	}
	put(3)
	put(4)
	present := func(k Key) bool {
		_, err := os.Stat(s.objectPath(k))
		return err == nil
	}
	if !present(oldest) {
		t.Error("the oldest record was evicted although a hit had just refreshed it")
	}
	if present(second) || present(third) {
		t.Errorf("records not refreshed by a hit survived eviction: second %v, third %v",
			present(second), present(third))
	}
}

// TestLeftoverTempFileIsIgnored leaves a complete record under a temp name
// in its shard, as a writer that crashed before the rename would. The temp
// file is never served, eviction neither counts nor deletes it, and Open,
// PutBytes, Get and Clear all work with it present.
func TestLeftoverTempFileIsIgnored(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Fingerprint: "fp", MaxBytes: 700}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The crashed writer's record is far over the cap: eviction would empty
	// the store if it counted the temp file.
	big := bytes.Repeat([]byte{'x'}, 4096)
	k, _ := s.Key("cell", Material{"crashed": true})
	record := []byte(fmt.Sprintf(`{"v":%d,"kind":"cell","enc":"bin","len":%d,"sha256":"%x"}`+"\n",
		SchemaVersion, len(big), sha256.Sum256(big)))
	record = append(record, big...)
	if _, err := decodeRecord(record); err != nil {
		t.Fatalf("test record is not valid: %v", err)
	}
	tmp := filepath.Join(filepath.Dir(s.objectPath(k)), ".tmp-12345")
	if err := os.MkdirAll(filepath.Dir(tmp), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tmp, record, 0o666); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir, opts)
	if err != nil {
		t.Fatalf("Open with a leftover temp file: %v", err)
	}
	if _, ok, err := getBytes(s, k); err != nil || ok {
		t.Fatalf("leftover temp file served: ok=%v err=%v", ok, err)
	}
	payload := bytes.Repeat([]byte{'y'}, 100)
	var keys []Key
	for i := 0; i < 3; i++ {
		ki, _ := s.Key("cell", Material{"i": i})
		if err := s.PutBytes(ki, "cell", "bin", payload); err != nil {
			t.Fatalf("PutBytes with a leftover temp file: %v", err)
		}
		keys = append(keys, ki)
	}
	for i, ki := range keys {
		if got, ok, err := getBytes(s, ki); err != nil || !ok || !bytes.Equal(got, payload) {
			t.Errorf("record %d under the cap: ok=%v err=%v (temp file counted by eviction?)", i, ok, err)
		}
	}
	if _, err := os.Stat(tmp); err != nil {
		t.Errorf("eviction removed the temp file: %v", err)
	}
	if err := s.Clear(); err != nil {
		t.Fatalf("Clear with a leftover temp file: %v", err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("temp file survived Clear: %v", err)
	}
	if err := s.PutBytes(k, "cell", "bin", payload); err != nil {
		t.Fatalf("store unusable after Clear: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "objects" {
		t.Errorf("store directory holds %v, want only objects/", entries)
	}
}

// TestConcurrentStoresShareDirectory races two Store instances (standing in
// for two Runner processes) over one directory: mixed same-key and
// distinct-key traffic must never corrupt the index or a record. Run under
// -race in CI.
func TestConcurrentStoresShareDirectory(t *testing.T) {
	dir := t.TempDir()
	open := func() *Store {
		s, err := Open(dir, Options{Fingerprint: "fp"})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := open(), open()
	const keys = 12
	payloadFor := func(i int) []byte { return []byte(fmt.Sprintf("payload-%d", i)) }

	var wg sync.WaitGroup
	errs := make(chan error, 4*keys)
	for _, s := range []*Store{a, b} {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(s *Store, g int) {
				defer wg.Done()
				for i := 0; i < keys; i++ {
					k, err := s.Key("cell", Material{"i": i})
					if err != nil {
						errs <- err
						return
					}
					if err := s.PutBytes(k, "cell", "bin", payloadFor(i)); err != nil {
						errs <- err
						return
					}
					got, ok, err := getBytes(s, k)
					if err != nil {
						errs <- err
						return
					}
					if ok && !bytes.Equal(got, payloadFor(i)) {
						errs <- fmt.Errorf("key %d read back %q", i, got)
						return
					}
				}
			}(s, g)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Afterwards every record is present, valid, and a fresh store (fresh
	// index load) agrees.
	c := open()
	for i := 0; i < keys; i++ {
		k, _ := c.Key("cell", Material{"i": i})
		got, ok, err := getBytes(c, k)
		if err != nil || !ok || !bytes.Equal(got, payloadFor(i)) {
			t.Fatalf("key %d after concurrent writes: ok=%v err=%v got=%q", i, ok, err, got)
		}
	}
	if st := c.Stats(); st.BadRecords != 0 {
		t.Errorf("concurrent writes produced %d bad records", st.BadRecords)
	}
}

// TestOtherStoreRecordsEvictedWithinBound: a Store walks the objects
// directory only when its own estimate of the total goes over the cap or
// after it has put MaxBytes/walkShare bytes, so records another Store (or
// process) writes are counted late, but within that many bytes of puts.
func TestOtherStoreRecordsEvictedWithinBound(t *testing.T) {
	dir := t.TempDir()
	const maxBytes = 16 << 10
	open := func(maxBytes int64) *Store {
		s, err := Open(dir, Options{Fingerprint: "fp", MaxBytes: maxBytes})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := open(maxBytes), open(-1)
	payload := bytes.Repeat([]byte{'x'}, 100)
	put := func(s *Store, i int) {
		k, _ := s.Key("cell", Material{"i": i})
		if err := s.PutBytes(k, "cell", "bin", payload); err != nil {
			t.Fatal(err)
		}
	}
	size := func() (total, records int64) {
		shards, _ := filepath.Glob(filepath.Join(dir, "objects", "??", "*"))
		for _, p := range shards {
			if fi, err := os.Stat(p); err == nil && isKeyName(fi.Name()) {
				total += fi.Size()
				records++
			}
		}
		return total, records
	}

	put(a, 0)
	i := 1
	for total, _ := size(); total <= 2*maxBytes; total, _ = size() {
		put(b, i) // b has no cap: the directory grows past a's
		i++
	}
	total, records := size()
	perRecord := total / records
	put(a, i)
	if now, _ := size(); now <= maxBytes {
		t.Errorf("a walked the directory on a put whose own estimate (%d bytes) fits the cap", 2*perRecord)
	}
	bound := maxBytes/walkShare/perRecord + 1
	for n := int64(2); ; n++ {
		i++
		put(a, i)
		if now, _ := size(); now <= maxBytes {
			break
		} else if n >= bound {
			t.Fatalf("after %d puts by a, the directory holds %d bytes, over its %d-byte cap", n, now, maxBytes)
		}
	}
}
