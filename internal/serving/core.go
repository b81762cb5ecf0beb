// Package serving is the reusable serving core behind cmd/slcd, the
// streaming compression daemon: per-request codec construction over the
// registry, with every request's configuration validated by
// experiments.NamedConfig and trained e2mc tables resolved through an
// experiments.TableCache (memory → resultstore → train, inside singleflight
// slots); block batch execution with bounded in-flight admission,
// per-request timeouts, graceful drain and Prometheus-style metrics. An
// evaluation run and a long-running daemon thus share one configuration
// check, one table-training path and one result store.
package serving

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/compress"
	_ "repro/internal/compress/all" // register every codec
	"repro/internal/experiments"
	"repro/internal/gpu/device"
	"repro/internal/pipeline"
	"repro/internal/resultstore"
	"repro/internal/workloads"
)

// Sentinel errors the transport layer maps to HTTP statuses.
var (
	// ErrSaturated reports that the bounded in-flight queue is full; the
	// client should back off and retry (429).
	ErrSaturated = errors.New("serving: saturated, retry later")
	// ErrDraining reports that the server is shutting down and admits no new
	// work (503).
	ErrDraining = errors.New("serving: draining, not accepting new work")
	// ErrTooManyBlocks reports a decompress request over MaxDecompressBlocks
	// (413).
	ErrTooManyBlocks = fmt.Errorf("serving: more than %d blocks in one request", MaxDecompressBlocks)
)

// RequestError is a caller mistake — unknown codec, bad geometry, undecodable
// payload — mapped to 400 rather than 500.
type RequestError struct{ msg string }

func (e *RequestError) Error() string { return e.msg }

// badRequest builds a RequestError.
func badRequest(format string, args ...interface{}) error {
	return &RequestError{msg: fmt.Sprintf(format, args...)}
}

// Config parameterises a serving Core. The zero value is usable: every field
// has a sensible default applied by NewCore.
type Config struct {
	// Workers is the per-batch fan-out: how many goroutines compress or
	// decompress the blocks of one request, and the pipeline.SetWorkers
	// value of evaluate runs. Non-positive selects one per core.
	Workers int
	// MaxInFlight bounds concurrently admitted requests; requests beyond it
	// are rejected with ErrSaturated instead of queueing unboundedly.
	// Non-positive selects DefaultMaxInFlight.
	MaxInFlight int
}

// DefaultMaxInFlight is the default bound on concurrently admitted requests.
const DefaultMaxInFlight = 64

// Core is the transport-independent serving engine behind slcd: codec
// resolution over the registry (with the trained-table cache), bounded
// admission, and batch execution. Safe for concurrent use.
type Core struct {
	workers int
	sem     chan struct{}

	// Tables resolves trained entropy tables; exported so the daemon can
	// attach a result store and tests can read the retrain counters.
	Tables experiments.TableCache

	draining atomic.Bool

	// Metrics receives request/batch observations; never nil.
	Metrics *Metrics

	store atomic.Pointer[resultstore.Store]
}

// NewCore builds a Core from a config.
func NewCore(cfg Config) *Core {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	c := &Core{
		workers: cfg.Workers,
		sem:     make(chan struct{}, cfg.MaxInFlight),
		Metrics: NewMetrics(),
	}
	c.Tables.Store = func() *resultstore.Store { return c.store.Load() }
	return c
}

// SetStore attaches the result store consulted by the table cache
// (nil detaches). Safe to call while serving.
func (c *Core) SetStore(st *resultstore.Store) { c.store.Store(st) }

// Store returns the attached result store, if any.
func (c *Core) Store() *resultstore.Store { return c.store.Load() }

// StartDrain puts the core into draining mode: every subsequent admission
// fails with ErrDraining while already-admitted requests run to completion.
func (c *Core) StartDrain() { c.draining.Store(true) }

// Draining reports whether the core is draining.
func (c *Core) Draining() bool { return c.draining.Load() }

// InFlight returns the number of currently admitted requests.
func (c *Core) InFlight() int { return len(c.sem) }

// acquire admits one request into the bounded in-flight queue.
func (c *Core) acquire() (release func(), err error) {
	if c.draining.Load() {
		return nil, ErrDraining
	}
	select {
	case c.sem <- struct{}{}:
		return func() { <-c.sem }, nil
	default:
		return nil, ErrSaturated
	}
}

// codecPair is the built (lossless, lossy) pair of one configuration, both
// nil for identity codecs, and the MAG it runs at.
type codecPair struct {
	lossless compress.Codec
	lossy    compress.Codec
	mag      compress.MAG
}

// active returns the codec a compress/decompress request runs: the lossy
// codec when the configuration has one (that is the codec the caller named),
// the lossless codec otherwise, nil for identity.
func (p codecPair) active() compress.Codec {
	if p.lossy != nil {
		return p.lossy
	}
	return p.lossless
}

// resolve validates a request's codec configuration and builds its pair.
// The wire's MAG 0 means 32 B; every other check is experiments.NamedConfig's,
// and its errors are the caller's (400). Table-trained codecs also require a
// profile (a registered workload name) that selects the training corpus.
// The pair is built afresh on every request: trained tables are memoised
// per profile, and a codec on one is a stateless value, so a cache of pairs
// would save one small allocation and grow with every distinct request.
func (c *Core) resolve(codec, profile string, magBytes, thresholdBits int, errorBound float64) (codecPair, error) {
	if magBytes == 0 {
		magBytes = int(compress.MAG32)
	}
	cfg, err := experiments.NamedConfig(codec, compress.MAG(magBytes), thresholdBits, errorBound)
	if err != nil {
		return codecPair{}, badRequest("%v", err)
	}
	var w workloads.Workload
	if info, _ := compress.Lookup(cfg.Codec); info.NeedsTable {
		if profile == "" {
			return codecPair{}, badRequest("serving: codec %q needs a trained table; set profile to one of %v", cfg.Codec, workloads.AllNames())
		}
		if w, err = workloads.ByName(profile); err != nil {
			return codecPair{}, badRequest("serving: unknown profile %q (available: %v)", profile, workloads.AllNames())
		}
	}
	lossless, lossy, err := c.Tables.Codecs(w, cfg)
	if err != nil {
		return codecPair{}, err
	}
	return codecPair{lossless: lossless, lossy: lossy, mag: cfg.MAG}, nil
}

// Block is the wire form of one compressed 128-byte block.
type Block struct {
	// Bits is the compressed size in bits (BlockBits when stored raw).
	Bits int `json:"bits"`
	// Payload is the codec bitstream (base64 in JSON).
	Payload []byte `json:"payload,omitempty"`
	// Lossy marks blocks whose payload decodes to an approximation.
	Lossy bool `json:"lossy,omitempty"`
}

// CompressRequest asks for Data, a multiple of 128 bytes, to be compressed
// block-by-block under one codec configuration.
type CompressRequest struct {
	Codec         string  `json:"codec"`
	Profile       string  `json:"profile,omitempty"`
	MAG           int     `json:"mag,omitempty"`
	ThresholdBits int     `json:"thresholdBits,omitempty"`
	ErrorBound    float64 `json:"errorBound,omitempty"`
	Data          []byte  `json:"data"`
}

// CompressResponse carries the per-block encodings and the batch ratio.
type CompressResponse struct {
	Codec    string  `json:"codec"`
	Blocks   []Block `json:"blocks"`
	RawRatio float64 `json:"rawRatio"`
}

// DecompressRequest asks for blocks previously produced by CompressRequest
// under the same configuration to be decoded back to bytes.
type DecompressRequest struct {
	Codec         string  `json:"codec"`
	Profile       string  `json:"profile,omitempty"`
	MAG           int     `json:"mag,omitempty"`
	ThresholdBits int     `json:"thresholdBits,omitempty"`
	ErrorBound    float64 `json:"errorBound,omitempty"`
	Blocks        []Block `json:"blocks"`
}

// DecompressResponse carries the reconstructed bytes (an approximation where
// blocks were lossy).
type DecompressResponse struct {
	Data []byte `json:"data"`
}

// EvaluateRequest measures how a codec configuration performs, through the
// real compression pipeline (including the lossy write-back feedback loop).
// With Data set, the data is loaded into a device region and synchronised
// once; with Data empty, the named Profile workload runs end to end with the
// pipeline attached to every region sync — the serving twin of an
// experiment cell's compression pass.
type EvaluateRequest struct {
	Codec         string  `json:"codec"`
	Profile       string  `json:"profile,omitempty"`
	MAG           int     `json:"mag,omitempty"`
	ThresholdBits int     `json:"thresholdBits,omitempty"`
	ErrorBound    float64 `json:"errorBound,omitempty"`
	Data          []byte  `json:"data,omitempty"`
}

// EvaluateResponse is the pipeline's accounting for the evaluated bytes.
type EvaluateResponse struct {
	Codec          string  `json:"codec"`
	Blocks         int64   `json:"blocks"`
	LossyBlocks    int64   `json:"lossyBlocks"`
	Uncompressed   int64   `json:"uncompressed"`
	RawRatio       float64 `json:"rawRatio"`
	EffectiveRatio float64 `json:"effectiveRatio"`
}

// checkGeometry validates that data splits into whole blocks.
func checkGeometry(n int) error {
	if n == 0 {
		return badRequest("serving: empty data")
	}
	if n%compress.BlockSize != 0 {
		return badRequest("serving: data length %d is not a multiple of the %d-byte block size", n, compress.BlockSize)
	}
	return nil
}

// Compress encodes req.Data block-by-block across the core's worker pool.
func (c *Core) Compress(ctx context.Context, req *CompressRequest) (*CompressResponse, error) {
	release, err := c.acquire()
	if err != nil {
		return nil, err
	}
	defer release()
	if err := checkGeometry(len(req.Data)); err != nil {
		return nil, err
	}
	pair, err := c.resolve(req.Codec, req.Profile, req.MAG, req.ThresholdBits, req.ErrorBound)
	if err != nil {
		return nil, err
	}
	cod := pair.active()
	n := len(req.Data) / compress.BlockSize
	blocks := make([]Block, n)
	err = c.forBlocks(ctx, n, func(i int) error {
		raw := req.Data[i*compress.BlockSize : (i+1)*compress.BlockSize]
		if cod == nil {
			// Identity baseline: stored raw.
			blocks[i] = Block{Bits: compress.BlockBits, Payload: append([]byte(nil), raw...)}
			return nil
		}
		enc := cod.Compress(raw)
		blocks[i] = Block{
			Bits:    enc.Bits,
			Payload: append([]byte(nil), enc.Payload...),
			Lossy:   enc.Lossy,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rawBits int64
	for _, b := range blocks {
		rawBits += int64(b.Bits)
	}
	ratio := 1.0
	if rawBits > 0 {
		ratio = float64(int64(n)*compress.BlockBits) / float64(rawBits)
	}
	c.Metrics.Add("slcd_blocks_total", `endpoint="compress"`, int64(n))
	return &CompressResponse{Codec: req.Codec, Blocks: blocks, RawRatio: ratio}, nil
}

// Decompress decodes blocks back into bytes through the codec's Decompress.
func (c *Core) Decompress(ctx context.Context, req *DecompressRequest) (*DecompressResponse, error) {
	release, err := c.acquire()
	if err != nil {
		return nil, err
	}
	defer release()
	if len(req.Blocks) == 0 {
		return nil, badRequest("serving: no blocks")
	}
	if len(req.Blocks) > MaxDecompressBlocks {
		return nil, fmt.Errorf("%w: got %d", ErrTooManyBlocks, len(req.Blocks))
	}
	pair, err := c.resolve(req.Codec, req.Profile, req.MAG, req.ThresholdBits, req.ErrorBound)
	if err != nil {
		return nil, err
	}
	cod := pair.active()
	data := make([]byte, len(req.Blocks)*compress.BlockSize)
	err = c.forBlocks(ctx, len(req.Blocks), func(i int) error {
		b := req.Blocks[i]
		dst := data[i*compress.BlockSize : (i+1)*compress.BlockSize]
		if cod == nil {
			if len(b.Payload) != compress.BlockSize {
				return badRequest("serving: block %d: raw payload is %d bytes, want %d", i, len(b.Payload), compress.BlockSize)
			}
			copy(dst, b.Payload)
			return nil
		}
		enc := compress.Encoded{Bits: b.Bits, Payload: b.Payload, Lossy: b.Lossy}
		if err := cod.Decompress(enc, dst); err != nil {
			return badRequest("serving: block %d: %v", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.Metrics.Add("slcd_blocks_total", `endpoint="decompress"`, int64(len(req.Blocks)))
	return &DecompressResponse{Data: data}, nil
}

// Evaluate runs the request through a real pipeline (pipeline.Sync with the
// core's worker pool) and returns its compression accounting.
func (c *Core) Evaluate(ctx context.Context, req *EvaluateRequest) (*EvaluateResponse, error) {
	release, err := c.acquire()
	if err != nil {
		return nil, err
	}
	defer release()
	pair, err := c.resolve(req.Codec, req.Profile, req.MAG, req.ThresholdBits, req.ErrorBound)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dev := device.New()
	pl, err := pipeline.New(dev, pair.mag, pair.lossless, pair.lossy)
	if err != nil {
		return nil, err
	}
	pl.SetWorkers(c.Workers())
	var stats pipeline.Stats
	switch {
	case len(req.Data) > 0:
		if err := checkGeometry(len(req.Data)); err != nil {
			return nil, err
		}
		reg, err := dev.Malloc("evaluate", len(req.Data), pair.lossy != nil)
		if err != nil {
			return nil, badRequest("serving: %v", err)
		}
		mem, err := dev.Bytes(reg.Addr, reg.Size)
		if err != nil {
			return nil, err
		}
		copy(mem, req.Data)
		pl.Sync(reg)
		stats = pl.Stats()
	case req.Profile != "":
		w, err := workloads.ByName(req.Profile)
		if err != nil {
			return nil, badRequest("serving: unknown profile %q (available: %v)", req.Profile, workloads.AllNames())
		}
		if _, err := w.Run(workloads.NewCtx(dev, nil, pl.Sync)); err != nil {
			return nil, fmt.Errorf("serving: evaluate %s: %w", req.Profile, err)
		}
		stats = pl.Stats()
	default:
		return nil, badRequest("serving: evaluate needs data or a profile")
	}
	c.Metrics.Add("slcd_blocks_total", `endpoint="evaluate"`, stats.Blocks)
	return &EvaluateResponse{
		Codec:          req.Codec,
		Blocks:         stats.Blocks,
		LossyBlocks:    stats.LossyBlocks,
		Uncompressed:   stats.Uncompressed,
		RawRatio:       stats.RawRatio(),
		EffectiveRatio: stats.EffectiveRatio(),
	}, nil
}

// Workers resolves the configured per-batch fan-out (non-positive selects
// one per core, the experiments.Workers policy).
func (c *Core) Workers() int { return experiments.Workers(c.workers) }

// forBlocks runs fn over block indices [0, n) on the core's worker pool.
// Like pipeline.Sync's parallel path, it gives each worker one contiguous
// span of indices; the caller's goroutine runs the first span. A span stops
// at its first failure, since every later index in it is higher, and the
// returned error is the failure of the lowest-index span that failed: the
// lowest-index failure overall, whatever the interleaving. A panicking block
// — a hostile payload tripping a codec — is such a failure, a RequestError
// for its index, rather than a daemon crash. Every span checks ctx between
// blocks and stops with ctx's error once it is done. The check is a
// non-blocking receive on ctx.Done(), which takes no lock, where ctx.Err()
// would take the context's mutex from every worker on every block.
func (c *Core) forBlocks(ctx context.Context, n int, fn func(i int) error) error {
	workers := min(c.Workers(), n)
	if workers <= 0 {
		return nil
	}
	done := ctx.Done()
	errs := make([]error, workers)
	span := func(w, lo, hi int) {
		i := lo
		defer func() {
			if r := recover(); r != nil {
				errs[w] = badRequest("serving: block %d: invalid payload: %v", i, r)
			}
		}()
		for ; i < hi; i++ {
			select {
			case <-done:
				errs[w] = ctx.Err()
				return
			default:
			}
			if err := fn(i); err != nil {
				errs[w] = err
				return
			}
		}
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			span(w, lo, hi)
		}()
	}
	span(0, 0, chunk)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
