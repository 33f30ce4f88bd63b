package cache_test

// Allocation gates on the per-access routes built on this package, the
// counterparts of TestDoBatchZeroAlloc: the I/O-coherence port into a CPU
// LLC, and a CPU load through L1, LLC and the DRAM port. Both streams miss
// to DRAM and evict dirty lines, so every level of the route runs.

import (
	"testing"

	"igpucomm/internal/cache"
	"igpucomm/internal/coherence"
	"igpucomm/internal/cpu"
	"igpucomm/internal/isa"
	"igpucomm/internal/memdev"
	"igpucomm/internal/units"
)

func newDRAM() *memdev.DRAM {
	return memdev.New(memdev.Config{Name: "dram", Latency: 150, Bandwidth: 25 * units.GBps})
}

func TestIOPortDoZeroAlloc(t *testing.T) {
	d := newDRAM()
	llc := cache.New(cache.Config{Name: "cpuLLC", Size: 8 * units.KiB, LineSize: 64, Ways: 4, HitLatency: 25}, d.NewPort("cpu"))
	p := coherence.NewIOPort("io", llc, 30)
	var addr int64
	allocs := testing.AllocsPerRun(1000, func() {
		kind := cache.Read
		if addr%128 == 0 {
			kind = cache.Write
		}
		p.Do(cache.Access{Addr: addr, Size: 64, Kind: kind})
		addr += 64
	})
	if allocs != 0 {
		t.Fatalf("IOPort.Do allocates %v times per access, want 0", allocs)
	}
	if d.Stats().Reads == 0 || d.Stats().Writebacks == 0 {
		t.Fatalf("stream did not reach DRAM: %+v", d.Stats())
	}
}

func TestCPUExecLoadZeroAlloc(t *testing.T) {
	d := newDRAM()
	c := cpu.New(cpu.Config{
		Name:  "cpu",
		Freq:  units.GHz,
		L1:    cache.Config{Name: "cpuL1", Size: 4 * units.KiB, LineSize: 64, Ways: 4, HitLatency: 2},
		LLC:   cache.Config{Name: "cpuLLC", Size: 16 * units.KiB, LineSize: 64, Ways: 8, HitLatency: 10},
		Costs: isa.DefaultCPUCosts(),
	}, d.NewPort("cpu-dram"), nil)
	var addr int64
	allocs := testing.AllocsPerRun(1000, func() {
		op := isa.LdGlobal
		if addr%128 == 0 {
			op = isa.StGlobal
		}
		c.Exec(isa.Instr{Op: op, Addr: addr, Size: 4})
		addr += 64
	})
	if allocs != 0 {
		t.Fatalf("CPU.Exec allocates %v times per access, want 0", allocs)
	}
	if d.Stats().Reads == 0 || d.Stats().Writebacks == 0 {
		t.Fatalf("stream did not reach DRAM: %+v", d.Stats())
	}
}
