// Package gpu models an integrated GPU: an array of streaming
// multiprocessors (SMs) with per-SM L1 caches over a shared GPU LLC, all
// backed by the same DRAM the CPU uses.
//
// Execution is SIMT at warp granularity. A kernel supplies a per-thread
// instruction emitter; the launcher groups threads into warps, checks that
// lanes stay convergent (same opcode sequence), coalesces each memory
// instruction's lane addresses into line-granular transactions, and drives
// those transactions through the cache hierarchy.
//
// Timing uses an interval (roofline) model per kernel:
//
//	smTime      = max(computeTime, memLatency / min(maxInflight, warpsOnSM))
//	kernelTime  = max(max_sm smTime, llcBytes/llcBW, dramBytes/dramBW,
//	                  pinnedBytes/pinnedBW) + launch overhead
//
// The bandwidth terms are what make a streaming kernel DRAM-bound and a
// reuse-heavy kernel LLC-bound — exactly the distinction the paper's
// micro-benchmarks probe.
//
// Zero-copy interaction: accesses to registered pinned ranges bypass the GPU
// caches entirely and go down the device's pinned path — an uncached DRAM
// port on Jetson Nano/TX2, or the I/O-coherence port into the CPU LLC on
// Xavier. Lane accesses on the pinned path are NOT coalesced: the bypass
// path issues narrow transactions, which (together with its low bandwidth)
// is why the paper measures up to 77x lower GPU throughput under ZC on TX2.
package gpu

import (
	"fmt"
	"reflect"
	"strconv"

	"igpucomm/internal/cache"
	"igpucomm/internal/heatmap"
	"igpucomm/internal/isa"
	"igpucomm/internal/memdev"
	"igpucomm/internal/units"
)

// MemPath is a memory route that exposes traffic counters — a DRAM port, an
// uncached pinned port, or an I/O-coherence port.
type MemPath interface {
	cache.Level
	Stats() memdev.Stats
}

// PinnedPath is the route pinned-range accesses take. The replay calls
// DoRun, which services accs[0] and as many accesses after it as it can,
// exactly as a Do each would, and returns how many, the first one's latency
// and each later one's.
type PinnedPath interface {
	MemPath
	DoRun(accs []cache.Access) (n int, first, rest units.Latency)
}

// Config describes the iGPU.
type Config struct {
	Name        string
	Freq        units.Hertz
	SMs         int
	WarpSize    int
	MaxInflight int // cap on outstanding memory requests per SM (MSHRs)
	// WarpMLP is the memory-level parallelism one resident warp sustains
	// (independent outstanding loads). Effective overlap per SM is
	// min(MaxInflight, residentWarps * WarpMLP). 0 defaults to 8.
	WarpMLP int
	// ResidentWarps is how many warps an SM holds concurrently. Execution
	// interleaves instruction-by-instruction across a resident batch (the
	// warp scheduler), which is what makes per-warp temporal locality
	// contend for L1 the way it does on hardware. 0 defaults to 16.
	ResidentWarps int

	L1  cache.Config // per-SM
	LLC cache.Config // shared

	LLCBandwidth  units.BytesPerSecond // sustained LLC service bandwidth
	DRAMBandwidth units.BytesPerSecond // sustained DRAM bandwidth via the LLC path

	Costs          isa.CostModel
	LaunchOverhead units.Latency
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	switch {
	case c.Freq <= 0:
		return fmt.Errorf("gpu %s: frequency must be positive", c.Name)
	case c.SMs <= 0:
		return fmt.Errorf("gpu %s: SM count must be positive", c.Name)
	case c.WarpSize <= 0:
		return fmt.Errorf("gpu %s: warp size must be positive", c.Name)
	case c.MaxInflight <= 0:
		return fmt.Errorf("gpu %s: max inflight must be positive", c.Name)
	case c.WarpMLP < 0:
		return fmt.Errorf("gpu %s: negative warp MLP", c.Name)
	case c.ResidentWarps < 0:
		return fmt.Errorf("gpu %s: negative resident warps", c.Name)
	case c.LLCBandwidth <= 0 || c.DRAMBandwidth <= 0:
		return fmt.Errorf("gpu %s: bandwidths must be positive", c.Name)
	case c.LaunchOverhead < 0:
		return fmt.Errorf("gpu %s: negative launch overhead", c.Name)
	}
	if err := c.L1.Validate(); err != nil {
		return fmt.Errorf("gpu %s: %w", c.Name, err)
	}
	if err := c.LLC.Validate(); err != nil {
		return fmt.Errorf("gpu %s: %w", c.Name, err)
	}
	if err := c.Costs.Validate(); err != nil {
		return err
	}
	// The compiled executor bulk-charges run-length-encoded compute
	// stretches as cost*n, which equals n sequential additions only for
	// whole-cycle costs (see isa.CostTable.Integral).
	if t := c.Costs.Table(); !t.Integral() {
		return fmt.Errorf("gpu %s: cost model has non-integral cycles", c.Name)
	}
	return nil
}

type addrRange struct{ lo, hi int64 }

type sm struct {
	l1 *cache.Cache
	// Per-kernel accumulators, reset at each launch.
	computeCycles units.Cycles
	memLatency    units.Latency
	warps         int
}

// GPU is the simulated integrated GPU. Not safe for concurrent use.
type GPU struct {
	cfg        Config
	sms        []*sm
	llc        *cache.Cache
	dramPath   MemPath
	pinnedPath PinnedPath
	pinnedBW   units.BytesPerSecond
	ranges     []addrRange

	// costs is cfg.Costs densified; Validate guarantees every cost is a
	// whole number of cycles.
	costs isa.CostTable

	// lineShift is log2(cfg.L1.LineSize), a validated power of two: the
	// compile pass maps (non-negative) addresses to lines with a shift.
	lineShift uint

	// oracle, when set, runs every Launcher launch in place of the compiled
	// path. Only the package's tests set it, to the per-access reference
	// executor they check the compiled path against; it is nil in every
	// binary.
	oracle func(Kernel) (Result, error)

	// pinnedEpoch invalidates compiled kernels when the pinned routing
	// they were compiled against changes.
	pinnedEpoch uint64

	laneProgs []isa.Program // reusable per-lane buffers
	laneIn    [][]isa.Instr // materialized lane views for the lane check

	comp   compiler      // reusable compile-pass scratch
	replay replayScratch // reusable replay buffers

	// The compiled-kernel cache behind Launcher, private or shared with
	// other GPUs of the same Config, and the entries this GPU validated
	// under pinned epoch validatedEpoch, per key (see lookupKernel).
	kc             *KernelCache
	validated      map[kernelKey]*cachedKernel
	validatedEpoch uint64
	pinnedRoute    string // pinnedPath.Name(), compared by the kernel cache

	work Work // compile-work counters, see Work

	// heat receives records for pinned-path transactions (which bypass the
	// caches entirely); the per-SM L1s record cacheable traffic through
	// their own sinks. nil when heat profiling is off.
	heat *heatmap.Accumulator
}

// New builds a GPU whose LLC misses go to dram. The pinned path is wired
// later with SetPinnedPath (it may depend on the CPU hierarchy when the
// device has I/O coherence). Panics on invalid configuration.
func New(cfg Config, dram MemPath) *GPU {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if dram == nil {
		panic(fmt.Sprintf("gpu %s: nil dram path", cfg.Name))
	}
	llc := cache.New(cfg.LLC, dram)
	g := &GPU{
		cfg:       cfg,
		llc:       llc,
		dramPath:  dram,
		laneProgs: make([]isa.Program, cfg.WarpSize),
		kc:        NewKernelCache(cfg, 1),
		validated: make(map[kernelKey]*cachedKernel),
	}
	g.costs = cfg.Costs.Table()
	for ls := cfg.L1.LineSize; ls > 1; ls >>= 1 {
		g.lineShift++
	}
	for i := 0; i < cfg.SMs; i++ {
		l1cfg := cfg.L1
		l1cfg.Name = cfg.L1.Name + "/sm" + strconv.Itoa(i)
		g.sms = append(g.sms, &sm{l1: cache.New(l1cfg, llc)})
	}
	return g
}

// Name returns the configured name.
func (g *GPU) Name() string { return g.cfg.Name }

// Config returns the configuration.
func (g *GPU) Config() Config { return g.cfg }

// LLC exposes the shared GPU cache for profiling and coherence.
func (g *GPU) LLC() *cache.Cache { return g.llc }

// L1Stats aggregates the per-SM L1 counters.
func (g *GPU) L1Stats() cache.Stats {
	var total cache.Stats
	for _, s := range g.sms {
		total.Add(s.l1.Stats())
	}
	return total
}

// KernelCache returns the compiled-kernel cache the GPU's launchers use.
func (g *GPU) KernelCache() *KernelCache { return g.kc }

// SetKernelCache attaches the GPU to c, replacing its current cache; GPUs
// attached to one cache replay each other's compiled kernels. Panics if c
// was made for a different Config.
func (g *GPU) SetKernelCache(c *KernelCache) {
	if !reflect.DeepEqual(c.cfg, g.cfg) {
		panic(fmt.Sprintf("gpu %s: kernel cache belongs to a different config (%s)", g.cfg.Name, c.cfg.Name))
	}
	clear(g.validated)
	g.kc = c
}

// Work counts the compile and replay work a GPU has done since New. The
// counters are plain integers, deterministic for a given launch sequence, so
// tests pin them exactly where a wall-clock time would be noise. ResetStats
// leaves them alone: they measure the simulator's own work, not the
// simulated traffic.
type Work struct {
	// KernelsCompiled counts compile passes (CompileInto calls that get
	// past the thread-count and program checks).
	KernelsCompiled int64
	// ProgramsEmitted counts thread programs the compile pass emitted.
	ProgramsEmitted int64
	// WarpsDerived counts full warps of declared affine kernels compiled
	// by shifting warp 0's template instead of emitting their lanes.
	WarpsDerived int64
	// TxnsRecorded counts transactions the compile pass coalesced and
	// stored: every explicit warp's, and warp 0's once per template. A
	// derived warp's transactions are not recorded; its ops refer to the
	// template.
	TxnsRecorded int64
	// KernelsReplayed counts compiled kernels driven through the caches:
	// every Launcher launch and every LaunchCompiled.
	KernelsReplayed int64
	// TxnsReplayed counts the transactions those replays issued.
	TxnsReplayed int64
	// PinnedRuns counts the DoRun calls that serviced the pinned ones.
	PinnedRuns int64
}

// Work returns the GPU's compile- and replay-work counters.
func (g *GPU) Work() Work { return g.work }

// SetPinnedPath wires the route pinned-range accesses take, with the
// sustained bandwidth of that route.
func (g *GPU) SetPinnedPath(p PinnedPath, bw units.BytesPerSecond) {
	g.pinnedPath = p
	g.pinnedBW = bw
	g.pinnedRoute = p.Name()
	g.pinnedEpoch++
}

// SetHeat attaches (nil detaches) the per-page heat accumulator. Cacheable
// traffic is recorded by the per-SM L1 sinks; pinned zero-copy transactions
// never reach a cache, so the GPU records them itself at issue. Compiled
// kernels stay valid across heat toggles: recording happens at replay time
// and never alters a result.
func (g *GPU) SetHeat(h *heatmap.Accumulator) {
	g.heat = h
	for _, s := range g.sms {
		s.l1.SetHeatSink(h)
	}
}

// PinnedEpoch identifies the current pinned-routing generation. A
// CompiledKernel is only replayable while the epoch it was compiled under is
// current (pinned classification is baked in at compile time).
func (g *GPU) PinnedEpoch() uint64 { return g.pinnedEpoch }

// AddPinnedRange marks [lo, hi) as a pinned zero-copy region: GPU accesses
// in it bypass the caches and use the pinned path. Panics if the range is
// empty or no pinned path is wired.
func (g *GPU) AddPinnedRange(lo, hi int64) {
	if hi <= lo {
		panic(fmt.Sprintf("gpu %s: empty pinned range [%d,%d)", g.cfg.Name, lo, hi))
	}
	if g.pinnedPath == nil {
		panic(fmt.Sprintf("gpu %s: no pinned path wired", g.cfg.Name))
	}
	g.ranges = append(g.ranges, addrRange{lo, hi})
	g.pinnedEpoch++
}

// ClearPinnedRanges removes all pinned mappings.
func (g *GPU) ClearPinnedRanges() {
	g.ranges = g.ranges[:0]
	g.pinnedEpoch++
}

func (g *GPU) pinned(addr int64) bool {
	for _, r := range g.ranges {
		if addr >= r.lo && addr < r.hi {
			return true
		}
	}
	return false
}

// FlushRange writes back and invalidates [lo, hi) across all GPU cache
// levels (maintenance by VA), returning writebacks and walk cost.
func (g *GPU) FlushRange(lo, hi int64, perLineCost units.Latency) (int64, units.Latency) {
	var wbs int64
	var cost units.Latency
	for _, s := range g.sms {
		w, c := s.l1.FlushRange(lo, hi, perLineCost)
		wbs += w
		cost += c
	}
	w, c := g.llc.FlushRange(lo, hi, perLineCost)
	return wbs + w, cost + c
}

// InvalidateCaches drops all GPU cache contents without writeback.
func (g *GPU) InvalidateCaches() {
	for _, s := range g.sms {
		s.l1.Invalidate()
	}
	g.llc.Invalidate()
}

// ResetStats zeroes all cache counters.
func (g *GPU) ResetStats() {
	for _, s := range g.sms {
		s.l1.ResetStats()
	}
	g.llc.ResetStats()
}
