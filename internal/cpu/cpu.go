// Package cpu models the CPU complex of an embedded SoC as an in-order core
// with an L1 + LLC cache hierarchy over shared DRAM.
//
// Timing is accumulated per executed instruction: compute ops cost their
// issue cycles (from an isa.CostModel), memory ops cost issue plus the
// critical-path latency reported by the cache hierarchy. The model is
// deliberately in-order and latency-additive — embedded Cortex-A cores are
// close enough to this for the communication-model comparisons the framework
// makes, and determinism is what the profiler needs.
//
// Zero-copy interaction: on devices without hardware I/O coherence, pinned
// buffers are mapped uncacheable for the CPU (this is what the CUDA runtime
// does on Jetson Nano/TX2). The CPU model implements that as address-range
// routing: accesses falling in a registered uncached range bypass the whole
// hierarchy and go to the DRAM uncached port.
package cpu

import (
	"fmt"

	"igpucomm/internal/cache"
	"igpucomm/internal/heatmap"
	"igpucomm/internal/isa"
	"igpucomm/internal/units"
)

// Config describes the CPU complex.
type Config struct {
	Name  string
	Freq  units.Hertz
	L1    cache.Config
	LLC   cache.Config
	Costs isa.CostModel
	// FlushLineCost is the per-line cost of a cache maintenance walk
	// (flush/invalidate), used by the standard-copy coherence protocol.
	FlushLineCost units.Latency
	// MemMLP is the memory-level parallelism of the core: how many
	// outstanding cacheable misses the load/store unit plus prefetchers
	// overlap. Cache-hierarchy latencies are divided by it; uncached
	// (device) accesses are strongly ordered and never overlap. 0 means 4.
	MemMLP int
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	if c.Freq <= 0 {
		return fmt.Errorf("cpu %s: frequency must be positive", c.Name)
	}
	if err := c.L1.Validate(); err != nil {
		return fmt.Errorf("cpu %s: %w", c.Name, err)
	}
	if err := c.LLC.Validate(); err != nil {
		return fmt.Errorf("cpu %s: %w", c.Name, err)
	}
	if err := c.Costs.Validate(); err != nil {
		return fmt.Errorf("cpu %s: %w", c.Name, err)
	}
	if c.FlushLineCost < 0 {
		return fmt.Errorf("cpu %s: negative flush cost", c.Name)
	}
	if c.MemMLP < 0 {
		return fmt.Errorf("cpu %s: negative memory-level parallelism", c.Name)
	}
	return nil
}

type addrRange struct{ lo, hi int64 } // [lo, hi)

// CPU is the simulated CPU complex. Not safe for concurrent use.
type CPU struct {
	cfg      Config
	l1       *cache.Cache
	llc      *cache.Cache
	uncached cache.Level
	ranges   []addrRange

	// issueLat[op] is Costs.Cost(op).Lat(Freq), precomputed once so Exec
	// indexes an array instead of hashing a map per instruction. Indexed by
	// the full uint8 opcode space, so unknown ops cost 0 like CostModel.Cost.
	issueLat [256]units.Latency

	elapsed  units.Latency
	instrs   int64
	memOps   int64
	opCounts [256]int64 // per-opcode retire counters, indexed by isa.Op
	tracer   func(isa.Instr)
	// heat receives records for uncached-range accesses (the L1 records its
	// own via its sink); nil when heat profiling is off.
	heat *heatmap.Accumulator
}

// New builds a CPU whose LLC misses go to mem (a DRAM port) and whose
// uncached-range accesses go to uncached (the DRAM pinned port). It panics on
// invalid configuration.
func New(cfg Config, mem, uncached cache.Level) *CPU {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if mem == nil {
		panic(fmt.Sprintf("cpu %s: nil memory level", cfg.Name))
	}
	llc := cache.New(cfg.LLC, mem)
	l1 := cache.New(cfg.L1, llc)
	c := &CPU{
		cfg:      cfg,
		l1:       l1,
		llc:      llc,
		uncached: uncached,
	}
	for op := range cfg.Costs.Issue {
		c.issueLat[op] = cfg.Costs.Cost(op).Lat(cfg.Freq)
	}
	return c
}

// Name returns the configured name.
func (c *CPU) Name() string { return c.cfg.Name }

// Config returns the configuration.
func (c *CPU) Config() Config { return c.cfg }

// L1 exposes the L1 cache for profiling.
func (c *CPU) L1() *cache.Cache { return c.l1 }

// LLC exposes the last-level cache for profiling and coherence operations.
func (c *CPU) LLC() *cache.Cache { return c.llc }

// AddUncachedRange marks [lo, hi) as uncacheable for this CPU: accesses in it
// bypass the hierarchy. Used when a pinned zero-copy buffer is mapped on a
// device without I/O coherence. Panics if hi <= lo or no uncached port was
// wired.
func (c *CPU) AddUncachedRange(lo, hi int64) {
	if hi <= lo {
		panic(fmt.Sprintf("cpu %s: empty uncached range [%d,%d)", c.cfg.Name, lo, hi))
	}
	if c.uncached == nil {
		panic(fmt.Sprintf("cpu %s: no uncached port wired", c.cfg.Name))
	}
	c.ranges = append(c.ranges, addrRange{lo, hi})
}

// ClearUncachedRanges removes all uncacheable mappings.
func (c *CPU) ClearUncachedRanges() { c.ranges = c.ranges[:0] }

func (c *CPU) route(addr int64) cache.Level {
	for _, r := range c.ranges {
		if addr >= r.lo && addr < r.hi {
			return c.uncached
		}
	}
	return c.l1
}

// SetTracer installs a hook invoked for every executed instruction — a
// debugging aid for workload authors (set nil to disable). The hook sees the
// instruction before its memory access is serviced.
func (c *CPU) SetTracer(f func(isa.Instr)) { c.tracer = f }

// SetHeat attaches (nil detaches) the per-page heat accumulator: the L1
// records cacheable traffic through its sink, the CPU itself records
// uncached-range (pinned) traffic, which never reaches a cache.
func (c *CPU) SetHeat(h *heatmap.Accumulator) {
	c.heat = h
	c.l1.SetHeatSink(h)
}

// Exec executes one instruction, advancing the CPU's elapsed time.
func (c *CPU) Exec(in isa.Instr) {
	if c.tracer != nil {
		c.tracer(in)
	}
	c.instrs++
	c.opCounts[in.Op]++
	c.elapsed += c.issueLat[in.Op]
	if !in.Op.IsMemory() {
		return
	}
	c.memOps++
	kind := cache.Read
	if in.Op == isa.StGlobal {
		kind = cache.Write
	}
	level := c.route(in.Addr)
	r := level.Do(cache.Access{Addr: in.Addr, Size: in.Size, Kind: kind})
	if level == c.l1 {
		// Cacheable path: the LSU and prefetchers overlap misses.
		mlp := c.cfg.MemMLP
		if mlp == 0 {
			mlp = 4
		}
		c.elapsed += r.Latency / units.Latency(mlp)
	} else {
		// Uncached pinned path: strongly ordered, no overlap.
		c.elapsed += r.Latency
		if c.heat != nil {
			// Uncached traffic always goes to memory: a miss by definition.
			c.heat.Record(in.Addr, in.Size, kind == cache.Write, true)
		}
	}
}

// Load is a convenience for trace-driven callers (instrumented applications).
func (c *CPU) Load(addr, size int64) { c.Exec(isa.Instr{Op: isa.LdGlobal, Addr: addr, Size: size}) }

// Store is the write-side convenience.
func (c *CPU) Store(addr, size int64) { c.Exec(isa.Instr{Op: isa.StGlobal, Addr: addr, Size: size}) }

// Work executes n copies of a compute op. With no tracer installed the loop
// collapses to counter bumps plus n issue-latency additions — the additions
// stay a loop (not a multiply) so the elapsed clock accumulates bit-for-bit
// the same float sequence the per-instruction path produces. The sum is kept
// in a local and stored once, so the loop is register adds rather than a
// load and store of c.elapsed per instruction; the add sequence is the same.
func (c *CPU) Work(op isa.Op, n int) {
	if c.tracer != nil || op.IsMemory() {
		for i := 0; i < n; i++ {
			c.Exec(isa.Instr{Op: op})
		}
		return
	}
	c.instrs += int64(n)
	c.opCounts[op] += int64(n)
	lat, elapsed := c.issueLat[op], c.elapsed
	for i := 0; i < n; i++ {
		elapsed += lat
	}
	c.elapsed = elapsed
}

// Run executes a whole program, walking its run-length encoding: compute
// stretches go through the bulk Work path, memory ops execute individually.
func (c *CPU) Run(p *isa.Program) {
	for _, r := range p.Runs() {
		if r.In.Op.IsMemory() || c.tracer != nil {
			for i := int32(0); i < r.Count; i++ {
				c.Exec(r.In)
			}
			continue
		}
		c.Work(r.In.Op, int(r.Count))
	}
}

// AdvanceTime adds wall time directly (used for fixed software overheads such
// as runtime API calls).
func (c *CPU) AdvanceTime(l units.Latency) {
	if l > 0 {
		c.elapsed += l
	}
}

// Elapsed returns the accumulated execution time.
func (c *CPU) Elapsed() units.Latency { return c.elapsed }

// ResetTime zeroes the elapsed clock (cache contents persist, as after a
// warmup phase).
func (c *CPU) ResetTime() { c.elapsed = 0 }

// Instructions returns the executed instruction count.
func (c *CPU) Instructions() int64 { return c.instrs }

// MemOps returns the executed memory operation count.
func (c *CPU) MemOps() int64 { return c.memOps }

// OpCount returns how many instructions of op executed.
func (c *CPU) OpCount(op isa.Op) int64 { return c.opCounts[op] }

// FlushRange performs cache maintenance by virtual address over [lo, hi):
// both levels write back and invalidate only the lines of that range, and
// the walk cost is charged to the CPU clock. This is what software coherence
// does to a shared buffer before handing it to the GPU.
func (c *CPU) FlushRange(lo, hi int64) int64 {
	wb1, cost1 := c.l1.FlushRange(lo, hi, c.cfg.FlushLineCost)
	wb2, cost2 := c.llc.FlushRange(lo, hi, c.cfg.FlushLineCost)
	c.elapsed += cost1 + cost2
	return wb1 + wb2
}

// InvalidateAll drops both cache levels without writeback (the "before CPU
// reads GPU-produced data" half of software coherence). A fixed walk cost per
// resident line is charged.
func (c *CPU) InvalidateAll() {
	resident := c.l1.ResidentLines() + c.llc.ResidentLines()
	c.l1.Invalidate()
	c.llc.Invalidate()
	c.elapsed += units.Latency(float64(resident) * float64(c.cfg.FlushLineCost))
}

// ResetStats zeroes cache and instruction counters (elapsed time untouched).
func (c *CPU) ResetStats() {
	c.l1.ResetStats()
	c.llc.ResetStats()
	c.instrs = 0
	c.memOps = 0
	c.opCounts = [256]int64{}
}
