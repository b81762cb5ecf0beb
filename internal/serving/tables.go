// Package serving is the reusable serving core behind cmd/slcd, the
// streaming compression daemon: codec construction over the registry with a
// per-codec builder cache (trained e2mc tables resolved memory → resultstore
// → train, inside singleflight slots), block batch execution with bounded
// in-flight admission, per-request timeouts, graceful drain and
// Prometheus-style metrics. The experiment Runner is a thin client of the
// same builder cache, so an evaluation run and a long-running daemon share
// one table-training path (and one result store).
package serving

import (
	"fmt"
	"sync/atomic"

	"repro/internal/compress"
	"repro/internal/compress/e2mc"
	"repro/internal/flight"
	"repro/internal/gpu/device"
	"repro/internal/resultstore"
	"repro/internal/workloads"
)

// Store record kind of trained entropy tables (shared with the experiment
// runner's store layout; the key material below is unchanged from the
// pre-serving Runner, so existing stores keep hitting).
const kindTable = "table"

// TableCache resolves trained e2mc entropy tables by workload: memory hit →
// resultstore hit → train, inside a singleflight slot per workload, so any
// number of concurrent requests (serving traffic or evaluation cells) train
// a given table at most once per process — and, with a store attached, at
// most once ever.
type TableCache struct {
	// Store returns the result store consulted before training, or nil for
	// a memory-only cache. It is a func so a late-attached store (the
	// Runner's Store field is assigned after construction) is still seen.
	Store func() *resultstore.Store

	// Progress, when set, receives one line per slow-path operation
	// (training). Calls may come from any goroutine; the provider
	// serialises.
	Progress func(format string, args ...interface{})

	tables flight.Group[*e2mc.Table]

	requests atomic.Int64
	retrains atomic.Int64
	diskHits atomic.Int64
}

// progress logs through the cache's hook when one is set.
func (c *TableCache) progress(format string, args ...interface{}) {
	if c.Progress != nil {
		c.Progress(format, args...)
	}
}

// store returns the attached result store, if any.
func (c *TableCache) store() *resultstore.Store {
	if c.Store == nil {
		return nil
	}
	return c.Store()
}

// tableMaterial keys a workload's trained entropy table: the sampling
// scheme (every region sync) and the table construction parameters.
func tableMaterial(w workloads.Workload) resultstore.Material {
	return resultstore.Material{
		"workload":   workloads.Fingerprint(w),
		"sampling":   "region-sync-v1",
		"maxSymbols": e2mc.DefaultMaxSymbols,
		"maxCodeLen": e2mc.DefaultMaxCodeLen,
	}
}

// Table returns the workload's E2MC table, trained by sampling the device
// image at every region synchronisation — the online-sampling substitute.
// Concurrent calls for the same workload resolve in one singleflight slot.
func (c *TableCache) Table(w workloads.Workload) (*e2mc.Table, error) {
	c.requests.Add(1)
	name := w.Info().Name
	return c.tables.Do(name, func() (*e2mc.Table, error) {
		st := c.store()
		var key resultstore.Key
		usable := false
		if st != nil {
			var err error
			key, err = st.Key(kindTable, tableMaterial(w))
			if err != nil {
				c.progress("store: keying table failed: %v", err)
			} else {
				usable = true
			}
		}
		if usable {
			// A record undecodable under the current wire format is a
			// miss: the store drops it and the train below rewrites it.
			var tab e2mc.Table
			if hit, err := st.Get(key, tab.UnmarshalBinary); err != nil {
				return nil, fmt.Errorf("table %s: store: %w", name, err)
			} else if hit {
				c.diskHits.Add(1)
				return &tab, nil
			}
		}
		c.progress("training table: %s", name)
		c.retrains.Add(1)
		dev := device.New()
		trainer := e2mc.NewTrainer()
		sync := func(reg device.Region) {
			reg.BlockAddrs(func(addr uint64) {
				block, err := dev.Block(addr)
				if err != nil {
					panic(err)
				}
				trainer.Sample(block)
			})
		}
		if _, err := w.Run(workloads.NewCtx(dev, nil, sync)); err != nil {
			return nil, fmt.Errorf("training %s: %w", name, err)
		}
		tab, err := trainer.Build(0, 0)
		if err != nil {
			return nil, fmt.Errorf("building table for %s: %w", name, err)
		}
		if usable {
			// Best-effort write-back: a full disk must not fail the train.
			if data, merr := tab.MarshalBinary(); merr != nil {
				c.progress("store: encoding table record failed: %v", merr)
			} else if perr := st.PutBytes(key, kindTable, "bin", data); perr != nil {
				c.progress("store: writing table record failed: %v", perr)
			}
		}
		return tab, nil
	})
}

// TableStats is a snapshot of the cache's traffic counters.
type TableStats struct {
	// Requests counts Table calls (memory hits included).
	Requests int64
	// Retrains counts slow-path table trainings — the number the serving
	// acceptance test pins at zero for a warm repeated request.
	Retrains int64
	// DiskHits counts tables served from the result store.
	DiskHits int64
}

// Stats returns the cache's traffic counters.
func (c *TableCache) Stats() TableStats {
	return TableStats{
		Requests: c.requests.Load(),
		Retrains: c.retrains.Load(),
		DiskHits: c.diskHits.Load(),
	}
}

// Codecs builds the (lossless, lossy) codec pair of a configuration from
// the registry, resolving any trained table through the cache. Identity
// codecs (the raw baseline) yield a nil pair; lossy codecs additionally
// build their lossless base for exact regions. This is the codec
// construction the experiment Runner delegates to.
func (c *TableCache) Codecs(w workloads.Workload, codec string, mag compress.MAG, thresholdBits int, errorBound float64) (lossless, lossy compress.Codec, err error) {
	info, ok := compress.Lookup(codec)
	if !ok {
		return nil, nil, compress.UnknownCodecError(codec)
	}
	if info.Identity {
		return nil, nil, nil
	}
	ctx := compress.BuildContext{MAG: mag, ThresholdBits: thresholdBits, ErrorBound: errorBound}
	if info.NeedsTable {
		tab, err := c.Table(w)
		if err != nil {
			return nil, nil, err
		}
		ctx.Table = tab
	}
	built, err := info.New(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("serving: building %q: %w", codec, err)
	}
	if !info.Lossy {
		return built, nil, nil
	}
	if info.Base == "" {
		return nil, nil, fmt.Errorf("serving: lossy codec %q registers no lossless base", codec)
	}
	base, err := compress.Build(info.Base, ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("serving: building base %q for %q: %w", info.Base, codec, err)
	}
	return base, built, nil
}
