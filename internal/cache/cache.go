// Package cache implements a deterministic set-associative cache simulator.
//
// It is the ground-truth engine behind the framework's profiler: every
// simulated CPU instruction and GPU memory transaction is pushed through a
// hierarchy of Cache levels terminating in a memory device, and the
// hit/miss/traffic counters collected here feed the paper's cache-usage
// equations (eqns 1-2).
//
// Levels are composable: a Cache forwards misses to its lower Level, which is
// either another Cache or a memory device (internal/memdev). Zero-copy never
// switches a cache off: the CPU and GPU models route pinned address ranges
// around their hierarchies instead.
//
// Caches are write-back, write-allocate, with true-LRU replacement. They are
// not safe for concurrent use; each simulated agent owns its hierarchy.
package cache

import (
	"fmt"
	"math"
	"math/bits"

	"igpucomm/internal/heatmap"
	"igpucomm/internal/units"
)

// Kind distinguishes demand reads, demand writes, and writebacks so that
// lower levels can account for traffic correctly.
type Kind uint8

// Access kinds.
const (
	Read Kind = iota
	Write
	Writeback // dirty eviction traffic; latency-free (buffered off critical path)
)

func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Writeback:
		return "writeback"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Access is one memory request presented to a Level.
type Access struct {
	Addr int64
	Size int64
	Kind Kind
}

// Result reports how a request was serviced.
type Result struct {
	// Latency is the total latency on the critical path, in simulated
	// nanoseconds.
	Latency units.Latency
}

// Level is anything that can service memory accesses: a cache or a memory
// device.
type Level interface {
	Name() string
	Do(a Access) Result
}

// Config describes one cache level.
type Config struct {
	Name       string
	Size       int64 // total capacity in bytes
	LineSize   int64 // bytes per line; power of two
	Ways       int   // associativity; Size/LineSize must be divisible by Ways
	HitLatency units.Latency
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Size <= 0:
		return fmt.Errorf("cache %s: size %d must be positive", c.Name, c.Size)
	case c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("cache %s: line size %d must be a positive power of two", c.Name, c.LineSize)
	case c.Ways <= 0:
		return fmt.Errorf("cache %s: ways %d must be positive", c.Name, c.Ways)
	case c.Size%(c.LineSize*int64(c.Ways)) != 0:
		return fmt.Errorf("cache %s: size %d not divisible by line*ways %d", c.Name, c.Size, c.LineSize*int64(c.Ways))
	case c.Size == int64(c.Ways):
		return fmt.Errorf("cache %s: one set of 1-byte lines leaves no tag free to mark an invalid way", c.Name)
	}
	sets := c.Size / (c.LineSize * int64(c.Ways))
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d must be a power of two", c.Name, sets)
	}
	return nil
}

// invalidTag marks an invalid way. A tag is an address shifted right
// arithmetically by log2(Size/Ways) >= 1 bits (Validate rejects Size ==
// Ways), so every real tag is above math.MinInt64 and a probe compares tags
// alone.
const invalidTag = math.MinInt64

// Cache is one set-associative level.
type Cache struct {
	cfg   Config
	lower Level
	// Way state in parallel slices of sets*ways entries, set-major, so a
	// probe scans one set's tags contiguously and a full set's victim
	// search reads only lastUse. fill counts each set's valid ways. Only
	// the tag marks a way invalid: its lastUse and dirty bit are not read
	// until a fill rewrites them.
	tags     []int64
	lastUse  []uint64
	dirty    []bool
	fill     []int
	ways     int
	setCount int64
	offBits  uint // log2(LineSize)
	setBits  uint // log2(setCount)
	useClock uint64
	stats    Stats
	// heat, when non-nil, receives one record per line serviced. Only
	// entry-level caches (CPU L1, per-SM GPU L1s) carry a sink, so a page is
	// attributed exactly once per demand touch; the nil check is the entire
	// cost of the disabled path.
	heat *heatmap.Accumulator
}

// New builds a cache level on top of lower. It panics if cfg is invalid or
// lower is nil: cache geometry is static configuration, and a bad geometry is
// a programming error, not a runtime condition.
func New(cfg Config, lower Level) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if lower == nil {
		panic(fmt.Sprintf("cache %s: nil lower level", cfg.Name))
	}
	setCount := cfg.Size / (cfg.LineSize * int64(cfg.Ways))
	n := setCount * int64(cfg.Ways)
	c := &Cache{
		cfg:      cfg,
		lower:    lower,
		tags:     make([]int64, n),
		lastUse:  make([]uint64, n),
		dirty:    make([]bool, n),
		fill:     make([]int, setCount),
		ways:     cfg.Ways,
		setCount: setCount,
		offBits:  uint(bits.TrailingZeros64(uint64(cfg.LineSize))),
		setBits:  uint(bits.TrailingZeros64(uint64(setCount))),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

// Name returns the configured level name.
func (c *Cache) Name() string { return c.cfg.Name }

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// SetHeatSink attaches (or, with nil, detaches) the per-page heat
// accumulator this level reports line traffic to. Heat recording never
// changes a Result or any cache state, so enabling it cannot perturb the
// simulation.
func (c *Cache) SetHeatSink(h *heatmap.Accumulator) { c.heat = h }

// Do services one access, recursing into lower levels on miss. Requests
// larger than a line are split into per-line requests and the latencies are
// summed (the agent models decide what issues; the cache just services).
func (c *Cache) Do(a Access) Result {
	var total Result
	if a.Size <= 0 {
		return total
	}
	first := a.Addr >> c.offBits
	last := (a.Addr + a.Size - 1) >> c.offBits
	for ln := first; ln <= last; ln++ {
		total.Latency += c.doLine(ln, a.Kind)
	}
	return total
}

// doLine services one line and returns its critical-path latency.
func (c *Cache) doLine(lineAddr int64, kind Kind) units.Latency {
	hit, wbAddr, wb := c.step(lineAddr, kind)
	if hit {
		return c.cfg.HitLatency
	}
	if wb {
		c.lower.Do(Access{Addr: wbAddr, Size: c.cfg.LineSize, Kind: Writeback})
	}
	// Fill from below. Writebacks arriving here allocate without a demand
	// fetch (the line is fully overwritten), so only Read/Write fetch.
	var lowerRes Result
	if kind != Writeback {
		lowerRes = c.lower.Do(Access{Addr: lineAddr << c.offBits, Size: c.cfg.LineSize, Kind: kind})
	}
	return c.cfg.HitLatency + lowerRes.Latency
}

// step services one line at this level alone: the counters, the LRU clock,
// the dirty bit and the heat record. A miss fills the victim way; if the
// evicted line was dirty, step returns its address, which the caller writes
// back before fetching the fill. doLine and DoBatch share it, so the two
// paths cannot drift apart.
func (c *Cache) step(lineAddr int64, kind Kind) (hit bool, wbAddr int64, wb bool) {
	c.useClock++
	set := lineAddr & (c.setCount - 1)
	tag := lineAddr >> c.setBits
	base := set * int64(c.ways)
	c.stats.count(kind, c.cfg.LineSize)

	if w := probe(c.tags[base:base+int64(c.ways)], tag); w >= 0 {
		c.lastUse[base+int64(w)] = c.useClock
		if kind != Read {
			c.dirty[base+int64(w)] = true
		}
		c.stats.countHit(kind)
		hit = true
	}
	if c.heat != nil {
		c.heat.Record(lineAddr<<c.offBits, c.cfg.LineSize, kind != Read, !hit)
	}
	if hit {
		return true, 0, false
	}

	i := base + int64(c.victim(set, base))
	if c.tags[i] == invalidTag {
		c.fill[set]++
	} else {
		c.stats.Evictions++
		if c.dirty[i] {
			c.stats.Writebacks++
			wbAddr, wb = (c.tags[i]<<c.setBits|set)<<c.offBits, true
			if c.heat != nil {
				c.heat.RecordWriteback(wbAddr, c.cfg.LineSize)
			}
		}
	}
	c.tags[i], c.lastUse[i], c.dirty[i] = tag, c.useClock, kind != Read
	return false, wbAddr, wb
}

// RepeatHit applies n more accesses like a to the resident line holding
// it, in closed form, and returns the Result each of them gets. It is
// byte-identical to n calls of Do(a): a lies in one line, which hits every
// time, so each call advances the LRU clock and stamps the line's lastUse
// with it, dirties the line unless a is a read, counts one access and its
// hit and records one heat sample, and none of them evicts or reaches the
// lower level. The I/O-coherence port applies a run of GPU lanes in the
// line the run's head just touched this way. Panics unless a is a
// non-empty access within one resident line.
func (c *Cache) RepeatHit(a Access, n int64) Result {
	lineAddr := a.Addr >> c.offBits
	set := lineAddr & (c.setCount - 1)
	base := set * int64(c.ways)
	w := -1
	if a.Size > 0 && (a.Addr+a.Size-1)>>c.offBits == lineAddr {
		w = probe(c.tags[base:base+int64(c.ways)], lineAddr>>c.setBits)
	}
	if w < 0 {
		panic(fmt.Sprintf("cache %s: RepeatHit of %+v, not within one resident line", c.cfg.Name, a))
	}
	if n <= 0 {
		return Result{Latency: c.cfg.HitLatency}
	}
	c.useClock += uint64(n)
	c.lastUse[base+int64(w)] = c.useClock
	if a.Kind != Read {
		c.dirty[base+int64(w)] = true
	}
	c.stats.countHits(a.Kind, c.cfg.LineSize, n)
	if c.heat != nil {
		for i := int64(0); i < n; i++ {
			c.heat.Record(lineAddr<<c.offBits, c.cfg.LineSize, a.Kind != Read, false)
		}
	}
	return Result{Latency: c.cfg.HitLatency}
}

// probe returns the way of one set's tags holding tag, or -1 on a miss.
func probe(tags []int64, tag int64) int {
	for w, t := range tags {
		if t == tag {
			return w
		}
	}
	return -1
}

// victim returns the way a miss in set (its ways start at base) fills: the
// first invalid way, else the least recently used. Valid ways' lastUse
// values are distinct, so a full set's minimum is unique.
func (c *Cache) victim(set, base int64) int {
	if c.fill[set] < c.ways {
		return probe(c.tags[base:base+int64(c.ways)], invalidTag)
	}
	lu := c.lastUse[base : base+int64(c.ways)]
	v, m := 0, lu[0]
	for w := 1; w < len(lu); w++ {
		if x := lu[w]; x < m {
			v, m = w, x
		}
	}
	return v
}

// FlushRange writes back and invalidates only the lines holding addresses in
// [lo, hi) — what cache-maintenance-by-VA instructions do. This is how
// software coherence flushes shared buffers around kernel launches: the
// agent's private working set stays cached. It returns the lines written back
// and the walk cost on the flushing agent (perLineCost per in-range line).
func (c *Cache) FlushRange(lo, hi int64, perLineCost units.Latency) (writebacks int64, cost units.Latency) {
	if hi <= lo {
		return 0, 0
	}
	flush := func(i, addr int64) {
		cost += perLineCost
		if c.dirty[i] {
			writebacks++
			if c.heat != nil {
				c.heat.RecordWriteback(addr, c.cfg.LineSize)
			}
			c.lower.Do(Access{Addr: addr, Size: c.cfg.LineSize, Kind: Writeback})
		}
		c.tags[i] = invalidTag
		c.fill[i/int64(c.ways)]--
	}
	firstLine := lo >> c.offBits
	lastLine := (hi - 1) >> c.offBits
	if n := lastLine - firstLine + 1; n < c.setCount {
		// The range covers fewer lines than the cache has sets, so each set
		// holds at most one in-range line: probe only the touched sets
		// instead of scanning every line. Sets are visited in ascending
		// index order, ways ascending within a set — the same order as the
		// dense scan below, so writeback traffic into the lower level is
		// identical and simulation results do not depend on which path ran.
		s0 := firstLine & (c.setCount - 1)
		flushSet := func(set int64) {
			// The one line address in [firstLine, lastLine] congruent to
			// set modulo setCount.
			la := firstLine + ((set - s0) & (c.setCount - 1))
			if la > lastLine {
				return
			}
			base := set * int64(c.ways)
			if w := probe(c.tags[base:base+int64(c.ways)], la>>c.setBits); w >= 0 {
				flush(base+int64(w), la<<c.offBits)
			}
		}
		if s0+n <= c.setCount {
			for set := s0; set < s0+n; set++ {
				flushSet(set)
			}
		} else {
			for set := int64(0); set < s0+n-c.setCount; set++ {
				flushSet(set)
			}
			for set := s0; set < c.setCount; set++ {
				flushSet(set)
			}
		}
	} else {
		for i, tag := range c.tags {
			if tag == invalidTag {
				continue
			}
			set := int64(i) / int64(c.ways)
			addr := (tag<<c.setBits | set) << c.offBits
			if addr+c.cfg.LineSize > lo && addr < hi {
				flush(int64(i), addr)
			}
		}
	}
	c.stats.Flushes++
	c.stats.FlushWritebacks += writebacks
	return writebacks, cost
}

// Invalidate drops all lines without writing anything back. Platform reset
// (soc.SoC.ResetState) uses it to start each experiment with cold caches.
func (c *Cache) Invalidate() {
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	clear(c.fill)
	c.stats.Invalidates++
}

// Contains reports whether the line holding addr is currently resident.
// Intended for tests and invariant checks.
func (c *Cache) Contains(addr int64) bool {
	lineAddr := addr >> c.offBits
	set := lineAddr & (c.setCount - 1)
	tag := lineAddr >> c.setBits
	base := set * int64(c.ways)
	return probe(c.tags[base:base+int64(c.ways)], tag) >= 0
}

// ResidentLines counts valid lines, the sum of the per-set fill counts;
// tests use it to check capacity behaviour.
func (c *Cache) ResidentLines() int64 {
	var n int64
	for _, f := range c.fill {
		n += int64(f)
	}
	return n
}

// Stats returns a snapshot of the level's counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without disturbing cache contents, so a
// profiler can measure a region of interest after warmup.
func (c *Cache) ResetStats() { c.stats = Stats{} }
