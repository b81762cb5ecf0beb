// Package cache models the GPU's shared L2 cache: set-associative,
// write-back, LRU. The SLC system integrates compression below the L2 (paper
// Figure 3), so the L2 filters which accesses reach the memory controllers.
// Compression does not change the L2's geometry or policy, but its hit/miss
// counts still differ between compression configurations: the simulator
// issues accesses in an order that depends on memory timing, and the
// compressed sizes change that timing. `slcbench -fig 7 -json` reports the
// per-configuration L2 counts.
package cache

import "fmt"

// Config describes a cache geometry.
type Config struct {
	SizeBytes int
	LineBytes int
	Ways      int
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / c.LineBytes / c.Ways }

// Validate checks the geometry.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache: size %d not divisible by line×ways", c.SizeBytes)
	}
	return nil
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64 // LRU timestamp
}

// Result reports the outcome of one access.
type Result struct {
	Hit bool
	// WritebackAddr is the address of a dirty line evicted by the fill;
	// valid only when HasWriteback is set.
	WritebackAddr uint64
	HasWriteback  bool
}

// Stats counts cache events.
type Stats struct {
	Hits       int
	Misses     int
	Writebacks int
}

// Cache is a set-associative write-back cache with true-LRU replacement.
// Write misses allocate without fetching (write-validate), the common GPU L2
// policy for streaming stores; read misses allocate on fill.
type Cache struct {
	cfg   Config
	sets  [][]line
	clock uint64
	stats Stats
}

// New builds a cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := make([][]line, cfg.Sets())
	for i := range sets {
		sets[i] = make([]line, cfg.Ways)
	}
	return &Cache{cfg: cfg, sets: sets}, nil
}

// Access performs one block access and returns hit/miss plus any writeback
// triggered by the fill.
func (c *Cache) Access(addr uint64, write bool) Result {
	c.clock++
	lineAddr := addr / uint64(c.cfg.LineBytes)
	setIdx := lineAddr % uint64(len(c.sets))
	tag := lineAddr / uint64(len(c.sets))
	set := c.sets[setIdx]

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].used = c.clock
			if write {
				set[i].dirty = true
			}
			c.stats.Hits++
			return Result{Hit: true}
		}
	}
	c.stats.Misses++

	// Miss: pick victim (invalid first, else LRU).
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	var res Result
	if set[victim].valid && set[victim].dirty {
		evictLine := set[victim].tag*uint64(len(c.sets)) + setIdx
		res.WritebackAddr = evictLine * uint64(c.cfg.LineBytes)
		res.HasWriteback = true
		c.stats.Writebacks++
	}
	set[victim] = line{tag: tag, valid: true, dirty: write, used: c.clock}
	return res
}

// Invalidate drops the line containing addr without a writeback — the
// behaviour of a write-through L1 receiving a store to a cached global.
func (c *Cache) Invalidate(addr uint64) {
	lineAddr := addr / uint64(c.cfg.LineBytes)
	setIdx := lineAddr % uint64(len(c.sets))
	tag := lineAddr / uint64(len(c.sets))
	set := c.sets[setIdx]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i] = line{}
			return
		}
	}
}

// Reset invalidates every line and zeroes the counters and LRU clock in
// place — a cold cache without reallocating the sets (the simulator resets
// caches at replay and kernel boundaries on its alloc-free path).
func (c *Cache) Reset() {
	for _, set := range c.sets {
		for i := range set {
			set[i] = line{}
		}
	}
	c.clock = 0
	c.stats = Stats{}
}

// Stats returns the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }
