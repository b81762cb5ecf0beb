package experiments

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"

	"repro/internal/compress/e2mc"
	"repro/internal/gpu/sim"
	"repro/internal/resultstore"
	"repro/internal/workloads"
)

// Disk persistence of memoised Runner computations and trained tables. When
// a store is attached (Runner.Store, TableCache.Store), every singleflight
// slot resolves memory hit → disk hit → compute:
// the first request for a key consults the store before computing, and a
// computed value is written back so later processes (and CI runs sharing a
// cached store directory) skip the work entirely. Keys are content
// addresses over everything that determines the value — the workload's
// generated-input fingerprint, the full configuration, the derived
// simulator configuration (including Workers, per the store's
// "any knob in the key" rule) — plus the store's schema version and code
// fingerprint (resultstore.NewKey), so any change recomputes instead of
// serving stale records.

// Store record kinds of the Runner's computations; kindTable (tablecache.go)
// is the fourth.
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
	// tableRecords hold a *e2mc.Table in its own binary wire format.
	tableRecords = recordCodec{
		decode: func(p []byte, v any) error {
			tab := new(e2mc.Table)
			if err := tab.UnmarshalBinary(p); err != nil {
				return err
			}
			*v.(**e2mc.Table) = tab
			return nil
		},
		put: func(s *resultstore.Store, k resultstore.Key, kind string, v any) error {
			data, err := v.(*e2mc.Table).MarshalBinary()
			if err != nil {
				return fmt.Errorf("encoding %s record: %w", kind, err)
			}
			return s.PutBytes(k, kind, "bin", data)
		},
	}
)

// memo resolves one memoised value through st, when one is attached: a hit
// is decoded and returned without calling compute; a miss computes the value
// and writes it back. The write is best-effort: a full disk or unwritable
// directory must not fail the run that just computed a perfectly good
// result. A material that fails to key (a programming error) and a failed
// write are reported through progress, not as errors. label prefixes a
// store read error.
func memo[T any](st *resultstore.Store, progress func(string, ...interface{}), kind string, m resultstore.Material, c recordCodec, label string, compute func() (T, error)) (T, error) {
	var key resultstore.Key
	if st != nil {
		var err error
		if key, err = st.Key(kind, m); err != nil {
			progress("store: keying %s failed: %v", kind, err)
			st = nil
		}
	}
	if st != nil {
		var cached T
		if hit, err := st.Get(key, func(p []byte) error { return c.decode(p, &cached) }); err != nil {
			var zero T
			return zero, fmt.Errorf("%s: store: %w", label, err)
		} else if hit {
			return cached, nil
		}
	}
	v, err := compute()
	if err == nil && st != nil {
		if err := c.put(st, key, kind, v); err != nil {
			progress("store: writing %s record failed: %v", kind, err)
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
