// Package resultstore is a disk-persisted, content-addressed cache for
// expensive experiment computations (golden runs, trained entropy tables,
// evaluation-cell results). Records are addressed by a SHA-256 key over a
// canonical encoding of everything that determines the value — workload
// fingerprint, configuration, simulator config, store schema version and a
// code fingerprint — so a populated store turns a repeated `slcbench`
// invocation into pure disk reads with bitwise-identical output.
//
// A store directory holds nothing but its records:
//
//	objects/ab/abcdef...        one record per key (header line + payload)
//
// Records carry a payload checksum; corrupt or truncated files are detected
// on read, deleted, and reported as misses so callers recompute instead of
// trusting bad data. Writes are atomic (temp file + rename), which makes
// concurrent writers of the same key safe: they produce identical bytes and
// the last rename wins. A record's mtime is its last use: a put sets it and
// a hit refreshes it, and the size cap evicts the oldest records first.
// Every record is immutable, so there is no shared mutable state and no
// lock: goroutines and processes share a directory through the filesystem
// alone.
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
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxBytes is the default LRU size cap of a store (1 GiB).
const DefaultMaxBytes = 1 << 30

// walkShare bounds how stale a Store's estimate of the directory's size may
// grow: once a Store has put MaxBytes/walkShare bytes since its last walk,
// its next put walks the objects directory again, so records that other
// processes wrote meanwhile are counted within a bounded number of puts.
const walkShare = 8

// Options configures Open.
type Options struct {
	// Fingerprint binds every key to the code that computes the values; an
	// empty string selects Fingerprint().
	Fingerprint string

	// MaxBytes caps the total object size; the least-recently-used records
	// are evicted past it. Zero selects DefaultMaxBytes, negative disables
	// the cap.
	MaxBytes int64
}

// Store is a content-addressed result cache rooted at one directory. It is
// safe for concurrent use by multiple goroutines and multiple processes
// sharing the directory.
type Store struct {
	dir         string
	fingerprint string
	maxBytes    int64

	hits   atomic.Int64
	misses atomic.Int64
	puts   atomic.Int64
	bad    atomic.Int64

	// evictMu guards the size estimate: walked is the objects directory's
	// total after this Store's last walk, and sinceWalk the record bytes
	// this Store has put since then (-1 before the first walk).
	evictMu   sync.Mutex
	walked    int64
	sinceWalk int64
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

// Open opens the store rooted at dir, creating its objects directory if
// needed.
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
		sinceWalk:   -1,
	}
	if s.fingerprint == "" {
		s.fingerprint = Fingerprint()
	}
	if s.maxBytes == 0 {
		s.maxBytes = DefaultMaxBytes
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

func (s *Store) objectsDir() string { return filepath.Join(s.dir, "objects") }

// objectPath returns the on-disk path of a key's record.
func (s *Store) objectPath(k Key) string {
	h := k.Hex()
	return filepath.Join(s.objectsDir(), h[:2], h)
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
// not recompute". A hit refreshes the record's mtime, its LRU position. ok
// reports a hit; err is an I/O failure, never a decode error.
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
	// Best-effort: a record evicted meanwhile, or a read-only store, only
	// costs LRU accuracy.
	now := time.Now()
	os.Chtimes(s.objectPath(k), now, now)
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

// PutBytes writes a record atomically and then evicts the least-recently-used
// records past the size cap. kind and enc label the record for inspection;
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
	return s.evict(int64(len(record)))
}

// atomicWrite writes data to path via a temp file + rename, so readers only
// ever observe complete records and concurrent writers of identical content
// are safe. The record's mtime is set to time.Now() explicitly before the
// rename: the kernel stamps files from a coarse clock, which gives rapid
// puts equal mtimes and so an arbitrary LRU order.
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
	now := time.Now()
	if err := os.Chtimes(tmpName, now, now); err != nil {
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

// Clear removes every record, leaving an empty, usable store.
func (s *Store) Clear() error {
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	s.walked, s.sinceWalk = 0, 0
	if err := os.RemoveAll(s.objectsDir()); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	return os.MkdirAll(s.objectsDir(), 0o777)
}

// object is one record file as eviction sees it.
type object struct {
	path  string
	size  int64
	mtime time.Time
}

// evict accounts for a put of n record bytes and keeps the store under its
// size cap. A walk of the objects directory costs time in proportion to the
// number of records, so evict walks only when the last walk's total plus
// this Store's puts since then exceed the cap, or when those puts reach
// MaxBytes/walkShare; otherwise the directory is known to fit, up to what
// other processes wrote since the last walk.
func (s *Store) evict(n int64) error {
	if s.maxBytes < 0 {
		return nil
	}
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	if s.sinceWalk >= 0 {
		s.sinceWalk += n
		if s.walked+s.sinceWalk <= s.maxBytes && s.sinceWalk < s.maxBytes/walkShare {
			return nil
		}
	}
	total, err := s.walk()
	if err != nil {
		return err
	}
	s.walked, s.sinceWalk = total, 0
	return nil
}

// walk deletes the least-recently-used records, oldest (mtime, name) first,
// until the records under objects/??/ fit the size cap, and returns their
// total size. Only 64-hex-digit names are records; a temp file a crashed
// writer left behind is neither counted nor deleted. A record another
// process removed meanwhile is skipped.
func (s *Store) walk() (int64, error) {
	shards, err := os.ReadDir(s.objectsDir())
	if err != nil {
		return 0, fmt.Errorf("resultstore: %w", err)
	}
	var objs []object
	var total int64
	for _, shard := range shards {
		if !shard.IsDir() || len(shard.Name()) != 2 {
			continue
		}
		dir := filepath.Join(s.objectsDir(), shard.Name())
		entries, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if !isKeyName(e.Name()) {
				continue
			}
			fi, err := e.Info()
			if err != nil {
				continue
			}
			objs = append(objs, object{filepath.Join(dir, e.Name()), fi.Size(), fi.ModTime()})
			total += fi.Size()
		}
	}
	if total <= s.maxBytes {
		return total, nil
	}
	sort.Slice(objs, func(i, j int) bool {
		if !objs[i].mtime.Equal(objs[j].mtime) {
			return objs[i].mtime.Before(objs[j].mtime)
		}
		return objs[i].path < objs[j].path // the shard is the name's prefix: name order
	})
	for _, o := range objs {
		if total <= s.maxBytes {
			break
		}
		if err := os.Remove(o.path); err != nil && !os.IsNotExist(err) {
			return 0, fmt.Errorf("resultstore: evicting: %w", err)
		}
		total -= o.size
	}
	return total, nil
}

// isKeyName reports whether name is a record's name: a key's 64 lowercase
// hex digits.
func isKeyName(name string) bool {
	if len(name) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(name); i++ {
		if c := name[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
