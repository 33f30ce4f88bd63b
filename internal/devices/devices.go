// Package devices holds the calibrated platform catalogs for the three
// boards the paper evaluates: NVIDIA Jetson Nano, Jetson TX2, and Jetson AGX
// Xavier.
//
// Geometry (core counts, cache sizes, clock rates) follows the boards' public
// specifications. The sustained-bandwidth and latency parameters are
// calibrated so the simulator's micro-benchmarks land near the paper's
// measured device characterizations (Table I, Figs 3/5/6):
//
//	            GPU LLC thr (SC)   GPU pinned-path thr (ZC)    ZC CPU caching
//	TX2         ~97 GB/s            ~1.28 GB/s (uncached DRAM)  disabled
//	Xavier      ~215 GB/s           ~32.3 GB/s (I/O coherent)   enabled
//	Nano        (TX2-like shape; paper omits its Table I row)
//
// The catalogs are plain data: every mechanism they parameterize lives in the
// substrate packages.
package devices

import (
	"fmt"
	"sort"

	"igpucomm/internal/cache"
	"igpucomm/internal/cpu"
	"igpucomm/internal/energy"
	"igpucomm/internal/gpu"
	"igpucomm/internal/isa"
	"igpucomm/internal/memdev"
	"igpucomm/internal/soc"
	"igpucomm/internal/units"
)

// Names of the catalogued platforms.
const (
	NanoName   = "jetson-nano"
	TX2Name    = "jetson-tx2"
	XavierName = "jetson-agx-xavier"
	// APUName is the extrapolated x86 APU profile (see APU); it resolves
	// through ByName but stays out of All() so the paper sweeps keep their
	// three boards.
	APUName = "embedded-apu"
)

// Nano returns the Jetson Nano platform configuration: 4x Cortex-A57 @
// 1.43 GHz with a Maxwell-class 128-core iGPU (one SM), LPDDR4, no I/O
// coherence — zero-copy disables caching of pinned buffers on both sides.
func Nano() soc.Config {
	return soc.Config{
		Name:     NanoName,
		MemBytes: 4 * units.GiB,
		DRAM: memdev.Config{
			Name:      NanoName + "/dram",
			Latency:   120,
			Bandwidth: 20 * units.GBps,
		},
		CPU: cpu.Config{
			Name:          NanoName + "/cpu",
			Freq:          1.43 * units.GHz,
			L1:            cache.Config{Name: "cpuL1", Size: 32 * units.KiB, LineSize: 64, Ways: 2, HitLatency: 2.5},
			LLC:           cache.Config{Name: "cpuLLC", Size: 2 * units.MiB, LineSize: 64, Ways: 16, HitLatency: 18},
			Costs:         isa.DefaultCPUCosts(),
			FlushLineCost: 1.2,
			MemMLP:        6,
		},
		GPU: gpu.Config{
			Name:           NanoName + "/gpu",
			Freq:           921 * units.MHz,
			SMs:            1,
			WarpSize:       32,
			MaxInflight:    128,
			ResidentWarps:  32,
			L1:             cache.Config{Name: "gpuL1", Size: 32 * units.KiB, LineSize: 64, Ways: 4, HitLatency: 24}, // effective L1/tex after shmem carveout
			LLC:            cache.Config{Name: "gpuLLC", Size: 256 * units.KiB, LineSize: 64, Ways: 16, HitLatency: 90},
			LLCBandwidth:   58 * units.GBps,
			DRAMBandwidth:  17 * units.GBps,
			Costs:          isa.DefaultGPUCosts(),
			LaunchOverhead: 9000, // 9µs software launch path
		},
		IOCoherent:      false,
		PinnedLatency:   130,
		PinnedWriteLat:  22,
		PinnedBandwidth: 0.9 * units.GBps,
		CopyBandwidth:   8 * units.GBps,
		CopySetup:       10500,
		PageSize:        64 * units.KiB, // driver migrates in 64KiB chunks
		FaultLatency:    2000,
		UMKernelFactor:  1.003,
		Power: energy.PowerConfig{
			StaticWatts:    2.0,
			CPUActiveWatts: 1.5,
			GPUActiveWatts: 2.0,
			DRAMPJPerByte:  80,
			CopyPJPerByte:  45,
		},
	}
}

// TX2 returns the Jetson TX2 platform configuration: Denver2+A57 cluster @
// 2.0 GHz with a Pascal-class 256-core iGPU (two SMs), LPDDR4, no I/O
// coherence. Its pinned path is the slowest of the three boards — the
// paper's Table I measures 1.28 GB/s against 97.34 GB/s cached, the 77x gap
// that makes ZC catastrophic for cache-dependent kernels here.
func TX2() soc.Config {
	return soc.Config{
		Name:     TX2Name,
		MemBytes: 8 * units.GiB,
		DRAM: memdev.Config{
			Name:      TX2Name + "/dram",
			Latency:   100,
			Bandwidth: 40 * units.GBps,
		},
		CPU: cpu.Config{
			Name:          TX2Name + "/cpu",
			Freq:          2.0 * units.GHz,
			L1:            cache.Config{Name: "cpuL1", Size: 32 * units.KiB, LineSize: 64, Ways: 2, HitLatency: 2},
			LLC:           cache.Config{Name: "cpuLLC", Size: 2 * units.MiB, LineSize: 64, Ways: 16, HitLatency: 14},
			Costs:         isa.DefaultCPUCosts(),
			FlushLineCost: 1.0,
			MemMLP:        6,
		},
		GPU: gpu.Config{
			Name:           TX2Name + "/gpu",
			Freq:           1.3 * units.GHz,
			SMs:            2,
			WarpSize:       32,
			MaxInflight:    128,
			ResidentWarps:  32,
			L1:             cache.Config{Name: "gpuL1", Size: 32 * units.KiB, LineSize: 64, Ways: 4, HitLatency: 20}, // effective L1/tex after shmem carveout
			LLC:            cache.Config{Name: "gpuLLC", Size: 512 * units.KiB, LineSize: 64, Ways: 16, HitLatency: 70},
			LLCBandwidth:   102.5 * units.GBps,
			DRAMBandwidth:  35 * units.GBps,
			Costs:          isa.DefaultGPUCosts(),
			LaunchOverhead: 4000,
		},
		IOCoherent:      false,
		PinnedLatency:   100,
		PinnedWriteLat:  18,
		PinnedBandwidth: 1.28 * units.GBps,
		CopyBandwidth:   15 * units.GBps,
		CopySetup:       7000,
		PageSize:        64 * units.KiB,
		FaultLatency:    1500,
		UMKernelFactor:  1.011,
		Power: energy.PowerConfig{
			StaticWatts:    3.0,
			CPUActiveWatts: 2.0,
			GPUActiveWatts: 3.0,
			DRAMPJPerByte:  70,
			CopyPJPerByte:  40,
		},
	}
}

// Xavier returns the Jetson AGX Xavier platform configuration: 8x Carmel @
// 2.26 GHz with a Volta-class 512-core iGPU (eight SMs), LPDDR4x, and —
// the board's distinguishing feature — hardware I/O coherence: GPU accesses
// to pinned memory snoop the CPU LLC instead of dropping to uncached DRAM,
// and the CPU keeps caching pinned buffers. Zero-copy stays usable for a far
// wider class of workloads here.
func Xavier() soc.Config {
	return soc.Config{
		Name:     XavierName,
		MemBytes: 16 * units.GiB,
		DRAM: memdev.Config{
			Name:      XavierName + "/dram",
			Latency:   90,
			Bandwidth: 100 * units.GBps,
		},
		CPU: cpu.Config{
			Name:          XavierName + "/cpu",
			Freq:          2.26 * units.GHz,
			L1:            cache.Config{Name: "cpuL1", Size: 64 * units.KiB, LineSize: 64, Ways: 4, HitLatency: 1.8},
			LLC:           cache.Config{Name: "cpuLLC", Size: 4 * units.MiB, LineSize: 64, Ways: 16, HitLatency: 11},
			Costs:         isa.DefaultCPUCosts(),
			FlushLineCost: 0.8,
			MemMLP:        8,
		},
		GPU: gpu.Config{
			Name:           XavierName + "/gpu",
			Freq:           1.377 * units.GHz,
			SMs:            8,
			WarpSize:       32,
			MaxInflight:    128,
			ResidentWarps:  32,
			L1:             cache.Config{Name: "gpuL1", Size: 32 * units.KiB, LineSize: 64, Ways: 4, HitLatency: 19}, // effective L1/tex after shmem carveout
			LLC:            cache.Config{Name: "gpuLLC", Size: 512 * units.KiB, LineSize: 64, Ways: 16, HitLatency: 60},
			LLCBandwidth:   226 * units.GBps,
			DRAMBandwidth:  85 * units.GBps,
			Costs:          isa.DefaultGPUCosts(),
			LaunchOverhead: 2500,
		},
		IOCoherent:     true,
		PinnedLatency:  120, // only reachable through ablations (CPU stays cached)
		PinnedWriteLat: 15,
		IOHopLatency:   60,
		IOBandwidth:    32.3 * units.GBps,
		CopyBandwidth:  30 * units.GBps,
		CopySetup:      6000,
		PageSize:       64 * units.KiB,
		FaultLatency:   1000,
		UMKernelFactor: 1.08,
		Power: energy.PowerConfig{
			StaticWatts:    5.0,
			CPUActiveWatts: 4.0,
			GPUActiveWatts: 6.0,
			DRAMPJPerByte:  60,
			CopyPJPerByte:  35,
		},
	}
}

// APU returns an extrapolated x86 embedded-APU profile, the class of machine
// the paper's Jetson results are most often asked to transfer to: a truly
// unified memory system (UPM — the CPU and GPU share page tables, so unified
// memory has no migration cost at all: FaultLatency 0, kernel factor 1.0),
// hardware I/O coherence, and a large LLC shared by both sides. It is not
// part of All() — the paper's sweeps and goldens are pinned to the three
// Jetson boards — but resolves through ByName for heat-map studies of how
// advice shifts when migration is free.
func APU() soc.Config {
	return soc.Config{
		Name:     APUName,
		MemBytes: 32 * units.GiB,
		DRAM: memdev.Config{
			Name:      APUName + "/dram",
			Latency:   80,
			Bandwidth: 120 * units.GBps,
		},
		CPU: cpu.Config{
			Name:          APUName + "/cpu",
			Freq:          3.0 * units.GHz,
			L1:            cache.Config{Name: "cpuL1", Size: 32 * units.KiB, LineSize: 64, Ways: 8, HitLatency: 1.5},
			LLC:           cache.Config{Name: "cpuLLC", Size: 8 * units.MiB, LineSize: 64, Ways: 16, HitLatency: 12},
			Costs:         isa.DefaultCPUCosts(),
			FlushLineCost: 0.8,
			MemMLP:        10,
		},
		GPU: gpu.Config{
			Name:           APUName + "/gpu",
			Freq:           2.2 * units.GHz,
			SMs:            8,
			WarpSize:       32,
			MaxInflight:    128,
			ResidentWarps:  32,
			L1:             cache.Config{Name: "gpuL1", Size: 32 * units.KiB, LineSize: 64, Ways: 4, HitLatency: 18},
			LLC:            cache.Config{Name: "gpuLLC", Size: 4 * units.MiB, LineSize: 64, Ways: 16, HitLatency: 55},
			LLCBandwidth:   280 * units.GBps,
			DRAMBandwidth:  110 * units.GBps,
			Costs:          isa.DefaultGPUCosts(),
			LaunchOverhead: 2000,
		},
		IOCoherent:     true,
		PinnedLatency:  100,
		PinnedWriteLat: 12,
		IOHopLatency:   40,
		IOBandwidth:    60 * units.GBps,
		CopyBandwidth:  40 * units.GBps,
		CopySetup:      5000,
		PageSize:       64 * units.KiB,
		FaultLatency:   0, // UPM: shared page tables, no migration faults
		UMKernelFactor: 1.0,
		Power: energy.PowerConfig{
			StaticWatts:    6.0,
			CPUActiveWatts: 8.0,
			GPUActiveWatts: 10.0,
			DRAMPJPerByte:  55,
			CopyPJPerByte:  30,
		},
	}
}

// All returns every catalogued platform configuration, sorted by name.
func All() []soc.Config {
	cfgs := []soc.Config{Nano(), TX2(), Xavier()}
	sort.Slice(cfgs, func(i, j int) bool { return cfgs[i].Name < cfgs[j].Name })
	return cfgs
}

// ByName looks a platform up by its catalog name, building only that
// platform. It also resolves the extra-catalog APU profile, which All()
// deliberately omits.
func ByName(name string) (soc.Config, error) {
	switch name {
	case NanoName:
		return Nano(), nil
	case TX2Name:
		return TX2(), nil
	case XavierName:
		return Xavier(), nil
	case APUName:
		return APU(), nil
	}
	return soc.Config{}, fmt.Errorf("devices: unknown platform %q (have %s, %s, %s, %s)",
		name, NanoName, TX2Name, XavierName, APUName)
}

// NewSoC is a convenience that instantiates a platform by name.
func NewSoC(name string) (*soc.SoC, error) {
	cfg, err := ByName(name)
	if err != nil {
		return nil, err
	}
	return soc.New(cfg), nil
}
