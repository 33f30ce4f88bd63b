package soc

import (
	"math"
	"strings"
	"testing"

	"igpucomm/internal/cache"
	"igpucomm/internal/cpu"
	"igpucomm/internal/energy"
	"igpucomm/internal/gpu"
	"igpucomm/internal/isa"
	"igpucomm/internal/memdev"
	"igpucomm/internal/mmu"
	"igpucomm/internal/units"
)

// smallConfig builds a tiny but fully valid platform for unit tests.
func smallConfig(ioCoherent bool) Config {
	return Config{
		Name:     "testsoc",
		MemBytes: 16 * units.MiB,
		DRAM:     memdev.Config{Name: "dram", Latency: 100, Bandwidth: 10 * units.GBps},
		CPU: cpu.Config{
			Name:          "cpu",
			Freq:          units.GHz,
			L1:            cache.Config{Name: "cpuL1", Size: 4 * units.KiB, LineSize: 64, Ways: 4, HitLatency: 2},
			LLC:           cache.Config{Name: "cpuLLC", Size: 64 * units.KiB, LineSize: 64, Ways: 8, HitLatency: 12},
			Costs:         isa.DefaultCPUCosts(),
			FlushLineCost: 1,
		},
		GPU: gpu.Config{
			Name:          "gpu",
			Freq:          units.GHz,
			SMs:           2,
			WarpSize:      32,
			MaxInflight:   8,
			L1:            cache.Config{Name: "gpuL1", Size: 8 * units.KiB, LineSize: 64, Ways: 4, HitLatency: 20},
			LLC:           cache.Config{Name: "gpuLLC", Size: 64 * units.KiB, LineSize: 64, Ways: 8, HitLatency: 60},
			LLCBandwidth:  50 * units.GBps,
			DRAMBandwidth: 10 * units.GBps,
			Costs:         isa.DefaultGPUCosts(),
		},
		IOCoherent:      ioCoherent,
		PinnedLatency:   500,
		PinnedBandwidth: units.GBps,
		IOHopLatency:    50,
		IOBandwidth:     5 * units.GBps,
		CopyBandwidth:   4 * units.GBps,
		CopySetup:       1000,
		PageSize:        4096,
		FaultLatency:    2000,
		UMKernelFactor:  1.0,
		Power:           energy.PowerConfig{StaticWatts: 1},
	}
}

func TestConfigValidateMutations(t *testing.T) {
	if err := smallConfig(false).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := smallConfig(true).Validate(); err != nil {
		t.Fatalf("valid coherent config rejected: %v", err)
	}
	muts := []func(*Config){
		func(c *Config) { c.MemBytes = 0 },
		func(c *Config) { c.DRAM.Bandwidth = 0 },
		func(c *Config) { c.CPU.Freq = 0 },
		func(c *Config) { c.GPU.SMs = 0 },
		func(c *Config) { c.PinnedLatency = -1 },
		func(c *Config) { c.PinnedBandwidth = 0 }, // non-coherent needs it
		func(c *Config) { c.CopyBandwidth = 0 },
		func(c *Config) { c.PageSize = 1000 },
		func(c *Config) { c.UMKernelFactor = 0 },
		func(c *Config) { c.Power.StaticWatts = -1 },
		func(c *Config) { c.GPU.Costs.Issue[isa.FMA] = 1.5 }, // fractional GPU cycles
	}
	for i, m := range muts {
		c := smallConfig(false)
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	coh := smallConfig(true)
	coh.IOBandwidth = 0
	if err := coh.Validate(); err == nil {
		t.Error("coherent platform without IO bandwidth accepted")
	}
}

func TestAllocationKindsAndRouting(t *testing.T) {
	s := New(smallConfig(false))
	host, err := s.AllocHost("h", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if host.Kind != mmu.HostAlloc {
		t.Error("host kind wrong")
	}
	dev, err := s.AllocDevice("d", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if dev.Kind != mmu.DeviceAlloc {
		t.Error("device kind wrong")
	}
	man, err := s.AllocManaged("m", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if man.Kind != mmu.Managed {
		t.Error("managed kind wrong")
	}
	pin, err := s.AllocPinned("p", 1024)
	if err != nil {
		t.Fatal(err)
	}
	// On a non-coherent platform the CPU must see pinned memory uncached.
	s.CPU.Load(pin.Addr, 4)
	if s.CPU.L1().Stats().Accesses() != 0 {
		t.Error("pinned access went through CPU L1 on non-coherent platform")
	}
	// And ordinary memory stays cached.
	s.CPU.Load(host.Addr, 4)
	if s.CPU.L1().Stats().Accesses() != 1 {
		t.Error("host access did not go through CPU L1")
	}
}

func TestPinnedRoutingCoherentPlatform(t *testing.T) {
	s := New(smallConfig(true))
	pin, err := s.AllocPinned("p", 1024)
	if err != nil {
		t.Fatal(err)
	}
	// CPU keeps caching pinned buffers under I/O coherence.
	s.CPU.Load(pin.Addr, 4)
	if s.CPU.L1().Stats().Accesses() != 1 {
		t.Error("pinned access bypassed CPU cache on coherent platform")
	}
	// GPU pinned accesses route through the IO port into the CPU LLC.
	if s.IOPort() == nil {
		t.Fatal("coherent platform missing IO port")
	}
	_, err = gpu.NewLauncher(s.GPU, "").Launch(0, gpu.Kernel{Name: "k", Threads: 32, Program: func(tid int, p *isa.Program) {
		p.Ld(pin.Addr+int64(tid)*4, 4)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if s.IOPort().Stats().Reads == 0 {
		t.Error("GPU pinned reads did not traverse the IO coherence port")
	}
}

func TestFreeRebuildsPinnedRouting(t *testing.T) {
	s := New(smallConfig(false))
	a, _ := s.AllocPinned("a", 1024)
	b, _ := s.AllocPinned("b", 1024)
	if err := s.Free("a"); err != nil {
		t.Fatal(err)
	}
	// a's range must be cacheable again; b's must stay uncached.
	s.CPU.Load(a.Addr, 4)
	if s.CPU.L1().Stats().Accesses() != 1 {
		t.Error("freed pinned range still uncached")
	}
	s.CPU.Load(b.Addr, 4)
	if s.CPU.L1().Stats().Accesses() != 1 {
		t.Error("surviving pinned range lost its uncached mapping")
	}
	if err := s.Free("nope"); err == nil {
		t.Error("freeing unknown buffer accepted")
	}
}

func TestCopyTimingAndAccounting(t *testing.T) {
	s := New(smallConfig(false))
	// 4 GB/s = 4 bytes/ns; 4096 bytes -> 1024ns + 1000 setup.
	lat := s.Copy(4096)
	if lat != 2024 {
		t.Errorf("copy latency = %v, want 2024", lat)
	}
	if s.CopyBytes() != 4096 || s.CopyCalls() != 1 {
		t.Errorf("copy counters = %d/%d", s.CopyBytes(), s.CopyCalls())
	}
	st := s.DRAM.Stats()
	if st.BytesRead != 4096 || st.BytesWritten != 4096 {
		t.Errorf("copy DRAM traffic = %d read / %d written, want 4096/4096", st.BytesRead, st.BytesWritten)
	}
	if lat := s.Copy(0); lat != 1000 {
		t.Errorf("empty copy = %v, want setup only", lat)
	}
}

func TestMigrationCost(t *testing.T) {
	s := New(smallConfig(false))
	// 2 faults * 2000ns + 8192 bytes at 4 B/ns = 4000 + 2048.
	if got := s.MigrationCost(2, 8192); got != 6048 {
		t.Errorf("migration cost = %v, want 6048", got)
	}
	if got := s.MigrationCost(0, 0); got != 0 {
		t.Errorf("zero migration cost = %v", got)
	}
}

func TestOverlapNoContention(t *testing.T) {
	s := New(smallConfig(false)) // 10 GB/s DRAM
	// Two streams wanting 2 GB/s each: no contention, makespan = max solo.
	make1, times := s.Overlap(
		Stream{Name: "cpu", Solo: 1000, Bytes: 2000},
		Stream{Name: "gpu", Solo: 2000, Bytes: 4000},
	)
	if make1 != 2000 {
		t.Errorf("makespan = %v, want 2000", make1)
	}
	if times[0] != 1000 || times[1] != 2000 {
		t.Errorf("times = %v", times)
	}
}

func TestOverlapContentionStretches(t *testing.T) {
	s := New(smallConfig(false)) // 10 GB/s
	// Each stream alone wants 8 GB/s; together they split 5/5 -> 1.6x each.
	makespan, times := s.Overlap(
		Stream{Name: "cpu", Solo: 1000, Bytes: 8000},
		Stream{Name: "gpu", Solo: 1000, Bytes: 8000},
	)
	if math.Abs(float64(times[0])-1600) > 1 || math.Abs(float64(times[1])-1600) > 1 {
		t.Errorf("stretched times = %v, want ~1600", times)
	}
	if math.Abs(float64(makespan)-1600) > 1 {
		t.Errorf("makespan = %v, want ~1600", makespan)
	}
}

func TestOverlapComputeOnlyStreams(t *testing.T) {
	s := New(smallConfig(false))
	makespan, _ := s.Overlap(
		Stream{Name: "cpu", Solo: 500, Bytes: 0},
		Stream{Name: "gpu", Solo: 700, Bytes: 0},
	)
	if makespan != 700 {
		t.Errorf("makespan = %v, want 700 (no memory, no stretch)", makespan)
	}
}

func TestResetStateRestoresPinnedRouting(t *testing.T) {
	s := New(smallConfig(false))
	pin, _ := s.AllocPinned("p", 1024)
	s.CPU.Load(0x100000, 4)
	s.Copy(128)
	s.ResetState()
	if s.CPU.Elapsed() != 0 || s.CopyBytes() != 0 || s.DRAM.Stats().Bytes() != 0 {
		t.Error("state survived reset")
	}
	// Pinned routing must survive the reset (buffer still allocated).
	s.CPU.Load(pin.Addr, 4)
	if s.CPU.L1().Stats().Accesses() != 0 {
		t.Error("pinned routing lost after ResetState")
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config accepted")
		}
	}()
	c := smallConfig(false)
	c.MemBytes = -1
	New(c)
}

func TestStreamDemand(t *testing.T) {
	st := Stream{Solo: 1000, Bytes: 5000} // 5 bytes/ns = 5 GB/s
	if got := st.Demand().GB(); math.Abs(got-5) > 1e-9 {
		t.Errorf("demand = %v GB/s, want 5", got)
	}
	if (Stream{Solo: 0, Bytes: 10}).Demand() != 0 {
		t.Error("degenerate stream demand should be 0")
	}
}

func TestChargeDMATraffic(t *testing.T) {
	s := New(smallConfig(false))
	s.ChargeDMATraffic(1024)
	st := s.DRAM.Stats()
	if st.BytesRead != 1024 || st.BytesWritten != 1024 {
		t.Errorf("DMA traffic = %d/%d, want 1024/1024", st.BytesRead, st.BytesWritten)
	}
	s.ChargeDMATraffic(0)
	s.ChargeDMATraffic(-5)
	if s.DRAM.Stats().BytesRead != 1024 {
		t.Error("degenerate DMA charges counted")
	}
}

func TestCPUTrafficCombinesPorts(t *testing.T) {
	s := New(smallConfig(false))
	pin, err := s.AllocPinned("p", 1024)
	if err != nil {
		t.Fatal(err)
	}
	host, err := s.AllocHost("h", 1024)
	if err != nil {
		t.Fatal(err)
	}
	s.CPU.Load(host.Addr, 4) // miss -> DRAM port traffic
	s.CPU.Load(pin.Addr, 4)  // pinned port traffic
	tr := s.CPUTraffic()
	if tr.BytesRead < 64+4 {
		t.Errorf("combined CPU traffic = %d bytes, want >= 68", tr.BytesRead)
	}
}

func TestOverlapThreeStreams(t *testing.T) {
	s := New(smallConfig(false)) // 10 GB/s DRAM
	// Three 6 GB/s streams over 10 GB/s: each granted ~3.33 -> 1.8x stretch.
	makespan, times := s.Overlap(
		Stream{Name: "a", Solo: 1000, Bytes: 6000},
		Stream{Name: "b", Solo: 1000, Bytes: 6000},
		Stream{Name: "c", Solo: 1000, Bytes: 6000},
	)
	for i, tm := range times {
		if math.Abs(float64(tm)-1800) > 1 {
			t.Errorf("stream %d stretched to %v, want ~1800", i, tm)
		}
	}
	if math.Abs(float64(makespan)-1800) > 1 {
		t.Errorf("makespan = %v", makespan)
	}
}

func TestDescribe(t *testing.T) {
	s := New(smallConfig(false))
	d := s.Describe()
	for _, want := range []string{"testsoc", "2 SMs", "software coherence", "pinned path"} {
		if !strings.Contains(d, want) {
			t.Errorf("describe missing %q: %s", want, d)
		}
	}
	coh := New(smallConfig(true)).Describe()
	if !strings.Contains(coh, "I/O coherence") || !strings.Contains(coh, "coherent path") {
		t.Errorf("coherent describe wrong: %s", coh)
	}
}
