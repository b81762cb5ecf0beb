package experiments

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"

	"repro/internal/gpu/sim"
	"repro/internal/resultstore"
	"repro/internal/workloads"
)

// Disk persistence of memoised Runner computations. When Runner.Store is
// set, every singleflight slot resolves memory hit → disk hit → compute:
// the first request for a key consults the store before computing, and a
// computed value is written back so later processes (and CI runs sharing a
// cached store directory) skip the work entirely. Keys are content
// addresses over everything that determines the value — the workload's
// generated-input fingerprint, the full configuration, the derived
// simulator configuration (including Workers, per the store's
// "any knob in the key" rule) — plus the store's schema version and code
// fingerprint (resultstore.NewKey), so any change recomputes instead of
// serving stale records.

// Store record kinds. The trained-table kind and material moved to
// internal/serving with the builder cache (byte-identical key material, so
// existing stores keep hitting).
const (
	kindGolden = "golden"
	kindCell   = "cell"
	kindComp   = "comp"
)

// goldenMaterial keys a workload's exact outputs.
func goldenMaterial(w workloads.Workload) resultstore.Material {
	return resultstore.Material{"workload": workloads.Fingerprint(w)}
}

// cellMaterial keys one full evaluation cell: workload content, the
// complete Config and the derived simulator configuration the cell runs
// under (so MAG, threshold, codec name, latencies and worker counts each
// change the key).
func cellMaterial(w workloads.Workload, cfg Config, sc sim.Config) resultstore.Material {
	return resultstore.Material{
		"workload": workloads.Fingerprint(w),
		"config":   cfg,
		"sim":      sc,
	}
}

// compMaterial keys a compression-only cell (no timing simulation).
func compMaterial(w workloads.Workload, cfg Config) resultstore.Material {
	return resultstore.Material{
		"workload": workloads.Fingerprint(w),
		"config":   cfg,
	}
}

// storeKey derives a key, reporting false when no store is attached (or the
// material fails to encode, which is a programming error surfaced via
// progress rather than a run failure).
func (r *Runner) storeKey(kind string, m resultstore.Material) (resultstore.Key, bool) {
	if r.Store == nil {
		return resultstore.Key{}, false
	}
	key, err := r.Store.Key(kind, m)
	if err != nil {
		r.progress("store: keying %s failed: %v", kind, err)
		return resultstore.Key{}, false
	}
	return key, true
}

// recordCodec is how a record kind's value is encoded in the store.
type recordCodec struct {
	decode func(payload []byte, v any) error
	put    func(s *resultstore.Store, k resultstore.Key, kind string, v any) error
}

var (
	gobRecords = recordCodec{
		decode: func(p []byte, v any) error { return gob.NewDecoder(bytes.NewReader(p)).Decode(v) },
		put:    (*resultstore.Store).PutGob,
	}
	jsonRecords = recordCodec{decode: json.Unmarshal, put: (*resultstore.Store).PutJSON}
)

// memo resolves one memoised value through the attached store: a hit is
// decoded and returned without calling compute; a miss computes the value
// and writes it back. The write is best-effort: a full disk or unwritable
// directory must not fail the run that just computed a perfectly good
// result. label prefixes a store read error.
func memo[T any](r *Runner, kind string, m resultstore.Material, c recordCodec, label string, compute func() (T, error)) (T, error) {
	key, usable := r.storeKey(kind, m)
	if usable {
		var cached T
		if hit, err := r.Store.Get(key, func(p []byte) error { return c.decode(p, &cached) }); err != nil {
			var zero T
			return zero, fmt.Errorf("%s: store: %w", label, err)
		} else if hit {
			return cached, nil
		}
	}
	v, err := compute()
	if err == nil && usable {
		if err := c.put(r.Store, key, kind, v); err != nil {
			r.progress("store: writing %s record failed: %v", kind, err)
		}
	}
	return v, err
}

// StoreStats returns the attached store's traffic counters, or nil when the
// runner computes everything in memory. slcbench surfaces it in -json
// output, which is how "a warm run performed zero recomputations" is
// observable.
func (r *Runner) StoreStats() *resultstore.Stats {
	if r.Store == nil {
		return nil
	}
	st := r.Store.Stats()
	return &st
}
