// Package soc composes the substrate models — CPU complex, integrated GPU,
// shared DRAM, MMU, copy engine, coherence hardware — into one simulated
// system-on-chip, the thing a communication model runs a workload on.
//
// The SoC owns the zero-copy wiring decision that distinguishes device
// generations (paper Fig 1):
//
//   - Devices without I/O coherence (Nano, TX2): pinned buffers are mapped
//     uncacheable on the CPU side and routed around the GPU caches to a slow
//     uncached DRAM port (Fig 1.a).
//   - Devices with hardware I/O coherence (Xavier): the CPU keeps caching
//     pinned buffers; GPU pinned accesses are routed through an IOPort that
//     snoops the CPU LLC (Fig 1.b).
//
// The copy engine (Fig 1.c) and unified-memory migration (Fig 1.d) live here
// too, as the primitives the SC and UM models are built from.
package soc

import (
	"fmt"

	"igpucomm/internal/coherence"
	"igpucomm/internal/cpu"
	"igpucomm/internal/energy"
	"igpucomm/internal/faults"
	"igpucomm/internal/gpu"
	"igpucomm/internal/heatmap"
	"igpucomm/internal/memdev"
	"igpucomm/internal/mmu"
	"igpucomm/internal/units"
)

// faultClone interrupts platform instantiation (soc.New, which Clone
// delegates to) — the engine builds a platform whenever its per-config pool
// is empty, so a latency spike here slows fan-out and a panic here exercises
// the engine's goroutine-boundary recovery.
var faultClone = faults.Register("soc.clone",
	"fresh platform instantiation (engine fan-out clones)",
	faults.CanLatency|faults.CanPanic)

// Config describes a complete embedded platform.
type Config struct {
	Name     string
	MemBytes int64 // size of the shared physical space

	DRAM memdev.Config
	CPU  cpu.Config
	GPU  gpu.Config

	// Zero-copy path.
	IOCoherent      bool                 // hardware I/O coherence (Xavier)
	PinnedLatency   units.Latency        // uncached pinned read latency
	PinnedWriteLat  units.Latency        // uncached pinned write latency (write-combined)
	PinnedBandwidth units.BytesPerSecond // pinned path sustained bandwidth
	IOHopLatency    units.Latency        // interconnect hop when IOCoherent
	IOBandwidth     units.BytesPerSecond // coherent path sustained bandwidth

	// Copy engine (cudaMemcpy).
	CopyBandwidth units.BytesPerSecond
	CopySetup     units.Latency // per-call driver overhead

	// Unified memory.
	PageSize     int64
	FaultLatency units.Latency // per migrated page driver overhead
	// UMKernelFactor scales UM kernel time relative to SC (driver
	// prefetch/placement differences; the paper bounds it at ±8%).
	UMKernelFactor float64

	Power energy.PowerConfig
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	if c.MemBytes <= 0 {
		return fmt.Errorf("soc %s: memory size must be positive", c.Name)
	}
	if err := c.DRAM.Validate(); err != nil {
		return fmt.Errorf("soc %s: %w", c.Name, err)
	}
	if err := c.CPU.Validate(); err != nil {
		return fmt.Errorf("soc %s: %w", c.Name, err)
	}
	if err := c.GPU.Validate(); err != nil {
		return fmt.Errorf("soc %s: %w", c.Name, err)
	}
	if c.PinnedLatency < 0 || c.PinnedWriteLat < 0 || c.IOHopLatency < 0 || c.CopySetup < 0 || c.FaultLatency < 0 {
		return fmt.Errorf("soc %s: negative latency parameter", c.Name)
	}
	if !c.IOCoherent && c.PinnedBandwidth <= 0 {
		return fmt.Errorf("soc %s: pinned bandwidth must be positive", c.Name)
	}
	if c.IOCoherent && c.IOBandwidth <= 0 {
		return fmt.Errorf("soc %s: coherent path bandwidth must be positive", c.Name)
	}
	if c.CopyBandwidth <= 0 {
		return fmt.Errorf("soc %s: copy bandwidth must be positive", c.Name)
	}
	if c.PageSize <= 0 || c.PageSize&(c.PageSize-1) != 0 {
		return fmt.Errorf("soc %s: page size must be a positive power of two", c.Name)
	}
	if c.UMKernelFactor <= 0 {
		return fmt.Errorf("soc %s: UM kernel factor must be positive", c.Name)
	}
	return c.Power.Validate()
}

// SoC is one simulated platform instance. Not safe for concurrent use.
type SoC struct {
	cfg Config

	DRAM     *memdev.DRAM
	CPU      *cpu.CPU
	GPU      *gpu.GPU
	Space    *mmu.Space
	Migrator *mmu.Migrator

	ioPort *coherence.IOPort // nil unless IOCoherent

	cpuDRAMPort   *memdev.Port
	cpuPinnedPort *memdev.UncachedPort

	copyBytes int64 // total bytes moved by the copy engine
	copyCalls int64

	// heat is the platform's per-page accumulator, allocated lazily on the
	// first EnableHeat and kept across disable/enable cycles so pooled
	// platforms never reallocate it. heatOn gates whether the agents carry
	// sinks right now.
	heat   *heatmap.Accumulator
	heatOn bool
}

// New builds a platform instance from its configuration. Panics on invalid
// configuration — device catalogs are static data and must be right.
func New(cfg Config) *SoC {
	_ = faults.Fire(faultClone)
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	dram := memdev.New(cfg.DRAM)

	cpuUncached := dram.NewUncachedPortRW(cfg.Name+"/cpu-pinned", cfg.PinnedLatency, pinnedWriteLat(cfg))
	cpuDRAM := dram.NewPort(cfg.Name + "/cpu-dram")
	c := cpu.New(cfg.CPU, cpuDRAM, cpuUncached)

	g := gpu.New(cfg.GPU, dram.NewPort(cfg.Name+"/gpu-dram"))

	s := &SoC{
		cfg:           cfg,
		DRAM:          dram,
		CPU:           c,
		GPU:           g,
		Space:         mmu.NewSpace(cfg.MemBytes, maxLine(cfg)),
		Migrator:      mmu.NewMigrator(cfg.PageSize),
		cpuDRAMPort:   cpuDRAM,
		cpuPinnedPort: cpuUncached,
	}
	if cfg.IOCoherent {
		s.ioPort = coherence.NewIOPort(cfg.Name+"/io-coherence", c.LLC(), cfg.IOHopLatency)
		g.SetPinnedPath(s.ioPort, cfg.IOBandwidth)
	} else {
		g.SetPinnedPath(dram.NewUncachedPortRW(cfg.Name+"/gpu-pinned", cfg.PinnedLatency, pinnedWriteLat(cfg)), cfg.PinnedBandwidth)
	}
	return s
}

func pinnedWriteLat(cfg Config) units.Latency {
	if cfg.PinnedWriteLat > 0 {
		return cfg.PinnedWriteLat
	}
	return cfg.PinnedLatency / 10
}

func maxLine(cfg Config) int64 {
	m := cfg.CPU.LLC.LineSize
	if cfg.GPU.LLC.LineSize > m {
		m = cfg.GPU.LLC.LineSize
	}
	return m
}

// Name returns the platform name.
func (s *SoC) Name() string { return s.cfg.Name }

// Clone builds a platform instance with the same configuration: pristine
// caches, empty address space, zeroed statistics — but NOT a fully
// independent copy. The Config is shared shallowly, so reference-typed
// config state (the ISA cost-model maps) aliases between the original and
// every clone. The contract that makes this safe is immutability: a Config
// is never written through once a platform is built — simulation reads cost
// tables, it does not update them — and TestCloneSharesImmutableConfig
// enforces that by hashing the config across a full model sweep. Mutable
// simulation state (caches, routing, statistics, the address space) is
// private per instance, which is what a not-concurrency-safe SoC actually
// needs from isolation. The execution engine leans on the same contract from
// the other side: it pools whole platforms per config and restores them with
// ResetState instead of cloning per task.
func (s *SoC) Clone() *SoC { return New(s.cfg) }

// Config returns the platform configuration.
func (s *SoC) Config() Config { return s.cfg }

// IOCoherent reports whether the platform has hardware I/O coherence.
func (s *SoC) IOCoherent() bool { return s.cfg.IOCoherent }

// IOPort exposes the coherence port (nil on non-coherent platforms); used by
// ablation experiments.
func (s *SoC) IOPort() *coherence.IOPort { return s.ioPort }

// AllocHost allocates CPU-partition memory.
func (s *SoC) AllocHost(name string, size int64) (mmu.Buffer, error) {
	return s.Space.Alloc(name, size, mmu.HostAlloc)
}

// AllocDevice allocates GPU-partition memory.
func (s *SoC) AllocDevice(name string, size int64) (mmu.Buffer, error) {
	return s.Space.Alloc(name, size, mmu.DeviceAlloc)
}

// AllocPinned allocates a zero-copy buffer and wires the routing
// consequences: on non-coherent platforms the range becomes uncacheable for
// the CPU; on all platforms GPU accesses to it take the pinned path.
func (s *SoC) AllocPinned(name string, size int64) (mmu.Buffer, error) {
	b, err := s.Space.Alloc(name, size, mmu.Pinned)
	if err != nil {
		return mmu.Buffer{}, err
	}
	if !s.cfg.IOCoherent {
		s.CPU.AddUncachedRange(b.Addr, b.End())
	}
	s.GPU.AddPinnedRange(b.Addr, b.End())
	return b, nil
}

// AllocManaged allocates a unified-memory buffer tracked by the migrator.
func (s *SoC) AllocManaged(name string, size int64) (mmu.Buffer, error) {
	return s.Space.Alloc(name, size, mmu.Managed)
}

// Free releases a buffer. Pinned routing entries are rebuilt from the
// surviving buffers.
func (s *SoC) Free(name string) error {
	b, ok := s.Space.Lookup(name)
	if !ok {
		return fmt.Errorf("soc %s: free %q: no such buffer", s.cfg.Name, name)
	}
	if err := s.Space.Free(name); err != nil {
		return err
	}
	if b.Kind == mmu.Pinned {
		s.CPU.ClearUncachedRanges()
		s.GPU.ClearPinnedRanges()
		for _, other := range s.Space.Buffers() {
			if other.Kind == mmu.Pinned {
				if !s.cfg.IOCoherent {
					s.CPU.AddUncachedRange(other.Addr, other.End())
				}
				s.GPU.AddPinnedRange(other.Addr, other.End())
			}
		}
	}
	return nil
}

// Copy runs the copy engine over n bytes and returns the transfer time. The
// traffic (read src + write dst) is charged to DRAM.
func (s *SoC) Copy(n int64) units.Latency {
	if n <= 0 {
		return s.cfg.CopySetup
	}
	s.copyBytes += n
	s.copyCalls++
	// The engine streams through DRAM: n bytes read + n bytes written.
	s.chargeDRAM(n, n)
	return s.cfg.CopySetup + units.Latency(float64(n)/float64(s.cfg.CopyBandwidth)*1e9)
}

// ChargeDMATraffic accounts a DMA-style round trip (read n + write n bytes)
// to DRAM without moving through any cache — what a UM page migration does.
func (s *SoC) ChargeDMATraffic(n int64) {
	if n > 0 {
		s.chargeDRAM(n, n)
	}
}

// MigrationCost converts a Touch result into time: per-fault driver overhead
// plus moving the bytes at copy-engine bandwidth.
func (s *SoC) MigrationCost(faults, bytes int64) units.Latency {
	if faults <= 0 && bytes <= 0 {
		return 0
	}
	move := units.Latency(float64(bytes) / float64(s.cfg.CopyBandwidth) * 1e9)
	return units.Latency(float64(faults))*s.cfg.FaultLatency + move
}

func (s *SoC) chargeDRAM(read, written int64) {
	// The DRAM device tracks totals through its ports; the copy engine has
	// no port of its own, so account directly via a dedicated port-less
	// access. We model it as one bulk read plus one bulk writeback.
	s.DRAM.Do(copyAccessRead(read))
	s.DRAM.Do(copyAccessWrite(written))
}

// CPUTraffic returns the CPU complex's total memory-side traffic: its
// cache-miss traffic to DRAM plus its uncached pinned-path traffic. Used to
// attribute bandwidth demand to the CPU stream during overlapped execution.
func (s *SoC) CPUTraffic() memdev.Stats {
	t := s.cpuDRAMPort.Stats()
	t.Add(s.cpuPinnedPort.Stats())
	return t
}

// CopyBytes returns the total bytes moved by the copy engine.
func (s *SoC) CopyBytes() int64 { return s.copyBytes }

// CopyCalls returns the number of copy-engine invocations.
func (s *SoC) CopyCalls() int64 { return s.copyCalls }

// EnableHeat attaches a per-page heat accumulator to the platform's entry
// points (CPU L1 + uncached port, per-SM GPU L1s + pinned path) and zeroes
// it. The accumulator is sized against the platform's memory extent with the
// platform's migration page as the bucket, allocated once and reused across
// enable/disable cycles. Heat recording never changes simulation results.
func (s *SoC) EnableHeat() {
	if s.heat == nil {
		s.heat = heatmap.New(s.cfg.MemBytes, s.cfg.PageSize)
	}
	s.heat.Reset()
	s.heatOn = true
	s.CPU.SetHeat(s.heat)
	s.GPU.SetHeat(s.heat)
}

// DisableHeat detaches the heat sinks; the accumulator is retained for the
// next EnableHeat. The disabled hot path is back to a single nil check.
func (s *SoC) DisableHeat() {
	s.heatOn = false
	s.CPU.SetHeat(nil)
	s.GPU.SetHeat(nil)
}

// Heat returns the active accumulator, or nil when heat profiling is off.
func (s *SoC) Heat() *heatmap.Accumulator {
	if !s.heatOn {
		return nil
	}
	return s.heat
}

// ResetState clears caches, routing, migration placements and statistics —
// a pristine platform for the next experiment.
func (s *SoC) ResetState() {
	s.CPU.InvalidateAll()
	s.CPU.ResetTime()
	s.CPU.ResetStats()
	s.CPU.ClearUncachedRanges()
	s.GPU.InvalidateCaches()
	s.GPU.ResetStats()
	s.GPU.ClearPinnedRanges()
	s.DRAM.ResetStats()
	s.cpuDRAMPort.ResetStats()
	s.cpuPinnedPort.ResetStats()
	s.Migrator.Reset()
	s.copyBytes = 0
	s.copyCalls = 0
	if s.ioPort != nil {
		s.ioPort.ResetStats()
	}
	if s.heatOn && s.heat != nil {
		s.heat.Reset()
	}
	// Rebuild routing for surviving pinned buffers.
	for _, b := range s.Space.Buffers() {
		if b.Kind == mmu.Pinned {
			if !s.cfg.IOCoherent {
				s.CPU.AddUncachedRange(b.Addr, b.End())
			}
			s.GPU.AddPinnedRange(b.Addr, b.End())
		}
	}
}

// Describe returns a human-readable platform summary for CLIs.
func (s *SoC) Describe() string {
	c := s.cfg
	coherence := "software coherence only (pinned buffers uncached)"
	zcPath := fmt.Sprintf("pinned path %.2f GB/s", c.PinnedBandwidth.GB())
	if c.IOCoherent {
		coherence = "hardware I/O coherence (GPU snoops the CPU LLC)"
		zcPath = fmt.Sprintf("coherent path %.2f GB/s", c.IOBandwidth.GB())
	}
	return fmt.Sprintf(
		"%s: CPU %.2f GHz (L1 %s, LLC %s), GPU %d SMs @ %.2f GHz (L1 %s/SM, LLC %s, %.0f GB/s), "+
			"DRAM %.0f GB/s, copy engine %.0f GB/s, %s, %s",
		c.Name,
		float64(c.CPU.Freq)/1e9, units.FormatBytes(c.CPU.L1.Size), units.FormatBytes(c.CPU.LLC.Size),
		c.GPU.SMs, float64(c.GPU.Freq)/1e9, units.FormatBytes(c.GPU.L1.Size), units.FormatBytes(c.GPU.LLC.Size),
		c.GPU.LLCBandwidth.GB(),
		c.DRAM.Bandwidth.GB(), c.CopyBandwidth.GB(), coherence, zcPath)
}
