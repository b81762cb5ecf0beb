// Package resultstore is a disk-persisted, content-addressed cache for
// expensive experiment computations (golden runs, trained entropy tables,
// evaluation-cell results). Records are addressed by a SHA-256 key over a
// canonical encoding of everything that determines the value — workload
// fingerprint, configuration, simulator config, store schema version and a
// code fingerprint — so a populated store turns a repeated `slcbench`
// invocation into pure disk reads with bitwise-identical output.
//
// Layout of a store directory:
//
//	objects/ab/abcdef...        one record per key (header line + payload)
//	index.json                  key → {size, kind, last-used} (rebuildable)
//	lock                        advisory lock for index updates and GC
//
// Records carry a payload checksum; corrupt or truncated files are detected
// on read, deleted, and reported as misses so callers recompute instead of
// trusting bad data. Writes are atomic (temp file + rename), which makes
// concurrent writers of the same key safe: they produce identical bytes and
// the last rename wins. The index is advisory — it only drives the LRU
// size-capped GC and is reconciled with the objects directory on Open.
package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// DefaultMaxBytes is the default LRU size cap of a store (1 GiB).
const DefaultMaxBytes = 1 << 30

// Options configures Open.
type Options struct {
	// Fingerprint binds every key to the code that computes the values; an
	// empty string selects Fingerprint().
	Fingerprint string

	// MaxBytes caps the total object size; the least-recently-used records
	// are evicted past it. Zero selects DefaultMaxBytes, negative disables
	// the cap.
	MaxBytes int64

	// Logf, when set, receives operational notices — most importantly
	// stale-lock takeovers (a crashed holder's advisory lock being stolen).
	// Calls may come from any goroutine; the provider serialises.
	Logf func(format string, args ...interface{})
}

// Store is a content-addressed result cache rooted at one directory. It is
// safe for concurrent use by multiple goroutines and multiple processes
// sharing the directory.
type Store struct {
	dir         string
	fingerprint string
	maxBytes    int64
	logf        func(format string, args ...interface{})

	hits   atomic.Int64
	misses atomic.Int64
	puts   atomic.Int64
	bad    atomic.Int64

	// touched batches pending LRU-timestamp refreshes (see touch in
	// index.go) so read hits do not rewrite the index one by one.
	touchMu sync.Mutex
	touched map[string]int64
}

// Stats counts store traffic since Open. BadRecords counts corrupt or
// truncated files detected (and deleted) on read; each also counts as a
// miss.
type Stats struct {
	Hits       int64
	Misses     int64
	Puts       int64
	BadRecords int64
}

// Open opens (creating if needed) the store rooted at dir and reconciles
// the index with the objects on disk.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultstore: empty store directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o777); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	s := &Store{
		dir:         dir,
		fingerprint: opts.Fingerprint,
		maxBytes:    opts.MaxBytes,
		logf:        opts.Logf,
	}
	if s.logf == nil {
		s.logf = func(string, ...interface{}) {}
	}
	if s.fingerprint == "" {
		s.fingerprint = Fingerprint()
	}
	if s.maxBytes == 0 {
		s.maxBytes = DefaultMaxBytes
	}
	if err := s.reconcile(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:       s.hits.Load(),
		Misses:     s.misses.Load(),
		Puts:       s.puts.Load(),
		BadRecords: s.bad.Load(),
	}
}

// Key derives the content address of a record of the given kind under this
// store's fingerprint and schema version.
func (s *Store) Key(kind string, m Material) (Key, error) {
	return NewKey(s.fingerprint, kind, m)
}

// objectPath returns the on-disk path of a key's record.
func (s *Store) objectPath(k Key) string {
	h := k.Hex()
	return filepath.Join(s.dir, "objects", h[:2], h)
}

// recordHeader is the first line of every record file.
type recordHeader struct {
	V      int    `json:"v"`
	Kind   string `json:"kind"`
	Enc    string `json:"enc"` // payload encoding: "json", "gob", "bin"
	Len    int    `json:"len"`
	SHA256 string `json:"sha256"`
}

// Get reads a record and hands its payload to decode. A missing, corrupt or
// truncated record is a miss (corrupt files are deleted so the next Put
// rewrites them). So is a record that decode rejects, a checksum-valid
// payload that no longer decodes under the current types: the file is
// dropped so the caller's recompute rewrites it. A hit is counted only once
// decode succeeds, so the hit/miss counters mean exactly "the caller did
// not recompute". ok reports a hit; err is an I/O failure, never a decode
// error.
func (s *Store) Get(k Key, decode func(payload []byte) error) (ok bool, err error) {
	data, err := os.ReadFile(s.objectPath(k))
	if err != nil {
		s.misses.Add(1)
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, fmt.Errorf("resultstore: reading %s: %w", k, err)
	}
	payload, err := decodeRecord(data)
	if err == nil {
		err = decode(payload)
	}
	if err != nil {
		s.bad.Add(1)
		s.misses.Add(1)
		os.Remove(s.objectPath(k))
		return false, nil
	}
	s.hits.Add(1)
	s.touch(k)
	return true, nil
}

// decodeRecord splits and validates one record file.
func decodeRecord(data []byte) ([]byte, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("resultstore: record has no header line")
	}
	var hdr recordHeader
	if err := json.Unmarshal(data[:nl], &hdr); err != nil {
		return nil, fmt.Errorf("resultstore: bad record header: %w", err)
	}
	if hdr.V != SchemaVersion {
		return nil, fmt.Errorf("resultstore: record schema v%d, want v%d", hdr.V, SchemaVersion)
	}
	payload := data[nl+1:]
	if len(payload) != hdr.Len {
		return nil, fmt.Errorf("resultstore: truncated record: %d payload bytes, header says %d", len(payload), hdr.Len)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != hdr.SHA256 {
		return nil, fmt.Errorf("resultstore: payload checksum mismatch")
	}
	return payload, nil
}

// PutBytes writes a record atomically and updates the index (evicting LRU
// records past the size cap). kind and enc label the record for inspection;
// they do not affect addressing — the key does.
func (s *Store) PutBytes(k Key, kind, enc string, payload []byte) error {
	hdr := recordHeader{
		V:      SchemaVersion,
		Kind:   kind,
		Enc:    enc,
		Len:    len(payload),
		SHA256: func() string { sum := sha256.Sum256(payload); return hex.EncodeToString(sum[:]) }(),
	}
	head, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	record := make([]byte, 0, len(head)+1+len(payload))
	record = append(record, head...)
	record = append(record, '\n')
	record = append(record, payload...)

	path := s.objectPath(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if err := atomicWrite(path, record); err != nil {
		return err
	}
	s.puts.Add(1)
	return s.indexPut(k, kind, int64(len(record)))
}

// atomicWrite writes data to path via a temp file + rename, so readers only
// ever observe complete records and concurrent writers of identical content
// are safe.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("resultstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("resultstore: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("resultstore: %w", err)
	}
	return nil
}

// PutJSON writes v as a JSON record.
func (s *Store) PutJSON(k Key, kind string, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("resultstore: encoding %s record: %w", kind, err)
	}
	return s.PutBytes(k, kind, "json", payload)
}

// PutGob writes v as a gob record. Gob preserves float64 values bitwise,
// which JSON formatting cannot guarantee for NaN/Inf, so golden outputs use
// it.
func (s *Store) PutGob(k Key, kind string, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("resultstore: encoding %s record: %w", kind, err)
	}
	return s.PutBytes(k, kind, "gob", buf.Bytes())
}

// Clear removes every record and the index, leaving an empty, usable store.
func (s *Store) Clear() error {
	s.drainTouches() // pending LRU refreshes point at records about to go
	unlock, err := s.lock()
	if err != nil {
		return err
	}
	defer unlock()
	if err := os.RemoveAll(filepath.Join(s.dir, "objects")); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if err := os.Remove(s.indexPath()); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("resultstore: %w", err)
	}
	return os.MkdirAll(filepath.Join(s.dir, "objects"), 0o777)
}
