package cpu

import (
	"math"
	"testing"

	"igpucomm/internal/cache"
	"igpucomm/internal/isa"
	"igpucomm/internal/memdev"
	"igpucomm/internal/units"
)

// testCPU builds a 1 GHz CPU (1 cycle == 1 ns, so costs read directly) with
// small caches over a 100ns DRAM and a 400ns uncached port.
func testCPU(t *testing.T) (*CPU, *memdev.DRAM) {
	t.Helper()
	d := memdev.New(memdev.Config{Name: "dram", Latency: 100, Bandwidth: 25 * units.GBps})
	cfg := Config{
		Name: "cpu",
		Freq: units.GHz,
		L1:   cache.Config{Name: "cpuL1", Size: 4 * units.KiB, LineSize: 64, Ways: 4, HitLatency: 2},
		LLC:  cache.Config{Name: "cpuLLC", Size: 64 * units.KiB, LineSize: 64, Ways: 8, HitLatency: 10},
		Costs: isa.CostModel{Issue: map[isa.Op]units.Cycles{
			isa.LdGlobal: 1, isa.StGlobal: 1, isa.FMA: 1, isa.SqrtF32: 14, isa.DivF32: 12,
		}},
		FlushLineCost: 1,
		MemMLP:        1, // no miss overlap: latencies add exactly in tests
	}
	return New(cfg, d.NewPort("cpu-dram"), d.NewUncachedPortRW("pinned", 400, 40)), d
}

func TestConfigValidate(t *testing.T) {
	good := Config{
		Name: "c", Freq: units.GHz,
		L1:    cache.Config{Name: "l1", Size: 1024, LineSize: 64, Ways: 4, HitLatency: 1},
		LLC:   cache.Config{Name: "llc", Size: 4096, LineSize: 64, Ways: 4, HitLatency: 1},
		Costs: isa.DefaultCPUCosts(),
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.Freq = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero frequency accepted")
	}
	bad = good
	bad.L1.Size = 0
	if err := bad.Validate(); err == nil {
		t.Error("bad L1 accepted")
	}
	bad = good
	bad.FlushLineCost = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative flush cost accepted")
	}
}

func TestComputeTiming(t *testing.T) {
	c, _ := testCPU(t)
	c.Work(isa.FMA, 10)
	if got := c.Elapsed(); got != 10 {
		t.Errorf("10 FMA at 1GHz = %vns, want 10", got)
	}
	c.ResetTime()
	c.Work(isa.SqrtF32, 2)
	if got := c.Elapsed(); got != 28 {
		t.Errorf("2 sqrt = %vns, want 28", got)
	}
}

func TestMemoryTimingColdThenWarm(t *testing.T) {
	c, _ := testCPU(t)
	c.Load(0, 4)
	// 1 issue + 2 L1 + 10 LLC + 100 DRAM = 113ns.
	if got := c.Elapsed(); got != 113 {
		t.Errorf("cold load = %vns, want 113", got)
	}
	c.ResetTime()
	c.Load(0, 4)
	// 1 issue + 2 L1 hit.
	if got := c.Elapsed(); got != 3 {
		t.Errorf("warm load = %vns, want 3", got)
	}
}

func TestUncachedRangeRouting(t *testing.T) {
	c, d := testCPU(t)
	c.AddUncachedRange(0x1000, 0x2000)
	c.Load(0x1000, 4)
	// 1 issue + 400 uncached; repeated access never caches.
	if got := c.Elapsed(); got != 401 {
		t.Errorf("uncached load = %vns, want 401", got)
	}
	c.Load(0x1000, 4)
	if got := c.Elapsed(); got != 802 {
		t.Errorf("second uncached load = %vns, want 802 (no caching)", got)
	}
	if c.L1().Stats().Accesses() != 0 {
		t.Error("uncached access went through L1")
	}
	// Outside the range still cached.
	c.Load(0x3000, 4)
	c.Load(0x3000, 4)
	if c.L1().Stats().ReadHits != 1 {
		t.Error("cacheable access did not hit L1")
	}
	_ = d
}

func TestClearUncachedRanges(t *testing.T) {
	c, _ := testCPU(t)
	c.AddUncachedRange(0, 64)
	c.ClearUncachedRanges()
	c.Load(0, 4)
	if c.L1().Stats().Accesses() != 1 {
		t.Error("cleared range still routed uncached")
	}
}

func TestAddUncachedRangePanics(t *testing.T) {
	c, _ := testCPU(t)
	defer func() {
		if recover() == nil {
			t.Fatal("empty range accepted")
		}
	}()
	c.AddUncachedRange(100, 100)
}

func TestStoreMarksWrite(t *testing.T) {
	c, _ := testCPU(t)
	c.Store(0, 4)
	if st := c.L1().Stats(); st.Writes != 1 {
		t.Errorf("L1 writes = %d, want 1", st.Writes)
	}
}

func TestCountsAndResetStats(t *testing.T) {
	c, _ := testCPU(t)
	var p isa.Program
	p.Ld(0, 4).Compute(isa.FMA, 5).St(4, 4)
	c.Run(&p)
	if c.Instructions() != 7 || c.MemOps() != 2 || c.OpCount(isa.FMA) != 5 {
		t.Errorf("instrs=%d memops=%d fma=%d", c.Instructions(), c.MemOps(), c.OpCount(isa.FMA))
	}
	c.ResetStats()
	if c.Instructions() != 0 || c.L1().Stats().Accesses() != 0 {
		t.Error("stats survived reset")
	}
	if c.Elapsed() == 0 {
		t.Error("ResetStats should not clear elapsed time")
	}
}

func TestAdvanceTime(t *testing.T) {
	c, _ := testCPU(t)
	c.AdvanceTime(500)
	c.AdvanceTime(-10) // ignored
	if c.Elapsed() != 500 {
		t.Errorf("elapsed = %v, want 500", c.Elapsed())
	}
}

// A range flush over all of memory writes back and empties both levels.
func TestFlushAllWritesBackAndCharges(t *testing.T) {
	c, d := testCPU(t)
	c.Store(0, 4)
	c.Store(64, 4)
	c.ResetTime()
	wbs := c.FlushRange(0, math.MaxInt64)
	// Two dirty lines in L1; they writeback into LLC (allocating there,
	// dirty), then LLC flush writes them to DRAM.
	if wbs != 4 {
		t.Errorf("writebacks = %d, want 4 (2 L1 + 2 LLC)", wbs)
	}
	if c.Elapsed() == 0 {
		t.Error("flush cost not charged")
	}
	if c.L1().ResidentLines() != 0 || c.LLC().ResidentLines() != 0 {
		t.Error("caches not empty after a full-range flush")
	}
	if d.Stats().BytesWritten != 128 {
		t.Errorf("DRAM bytes written = %d, want 128", d.Stats().BytesWritten)
	}
}

func TestInvalidateAll(t *testing.T) {
	c, d := testCPU(t)
	c.Store(0, 4)
	before := d.Stats().BytesWritten
	c.InvalidateAll()
	if c.L1().ResidentLines() != 0 || c.LLC().ResidentLines() != 0 {
		t.Error("caches not empty after InvalidateAll")
	}
	if d.Stats().BytesWritten != before {
		t.Error("InvalidateAll produced writebacks")
	}
}

func TestFrequencyScalesTime(t *testing.T) {
	d := memdev.New(memdev.Config{Name: "dram", Latency: 100, Bandwidth: units.GBps})
	cfg := Config{
		Name: "fast", Freq: 2 * units.GHz,
		L1:    cache.Config{Name: "l1", Size: 1024, LineSize: 64, Ways: 4, HitLatency: 2},
		LLC:   cache.Config{Name: "llc", Size: 4096, LineSize: 64, Ways: 4, HitLatency: 10},
		Costs: isa.CostModel{Issue: map[isa.Op]units.Cycles{isa.FMA: 1}},
	}
	c := New(cfg, d.NewPort("p"), nil)
	c.Work(isa.FMA, 10)
	if got := c.Elapsed(); got != 5 {
		t.Errorf("10 FMA at 2GHz = %vns, want 5", got)
	}
}

func TestMemMLPOverlapsCacheableMisses(t *testing.T) {
	d := memdev.New(memdev.Config{Name: "dram", Latency: 100, Bandwidth: units.GBps})
	cfg := Config{
		Name: "mlp", Freq: units.GHz,
		L1:     cache.Config{Name: "l1", Size: 1024, LineSize: 64, Ways: 4, HitLatency: 2},
		LLC:    cache.Config{Name: "llc", Size: 4096, LineSize: 64, Ways: 4, HitLatency: 10},
		Costs:  isa.CostModel{Issue: map[isa.Op]units.Cycles{isa.LdGlobal: 1}},
		MemMLP: 4,
	}
	c := New(cfg, d.NewPort("p"), d.NewUncachedPortRW("u", 400, 40))
	c.Load(0, 4)
	// 1 issue + (2+10+100)/4 = 29ns.
	if got := c.Elapsed(); got != 29 {
		t.Errorf("overlapped miss = %vns, want 29", got)
	}
	// Uncached path never overlaps.
	c.AddUncachedRange(1<<20, 1<<21)
	c.ResetTime()
	c.Load(1<<20, 4)
	if got := c.Elapsed(); got != 401 {
		t.Errorf("uncached load = %vns, want full 401", got)
	}
}

func BenchmarkCPUStreamingLoads(b *testing.B) {
	d := memdev.New(memdev.Config{Name: "dram", Latency: 100, Bandwidth: 25 * units.GBps})
	cfg := Config{
		Name: "bench", Freq: 2 * units.GHz,
		L1:     cache.Config{Name: "l1", Size: 32 * units.KiB, LineSize: 64, Ways: 4, HitLatency: 2},
		LLC:    cache.Config{Name: "llc", Size: 2 * units.MiB, LineSize: 64, Ways: 16, HitLatency: 12},
		Costs:  isa.DefaultCPUCosts(),
		MemMLP: 6,
	}
	c := New(cfg, d.NewPort("p"), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Load(int64(i%(1<<20))*4, 4)
	}
}

func TestTracerSeesEveryInstruction(t *testing.T) {
	c, _ := testCPU(t)
	var seen []isa.Op
	c.SetTracer(func(in isa.Instr) { seen = append(seen, in.Op) })
	c.Load(0, 4)
	c.Work(isa.FMA, 2)
	c.Store(4, 4)
	want := []isa.Op{isa.LdGlobal, isa.FMA, isa.FMA, isa.StGlobal}
	if len(seen) != len(want) {
		t.Fatalf("traced %d instrs, want %d", len(seen), len(want))
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("instr %d = %v, want %v", i, seen[i], want[i])
		}
	}
	c.SetTracer(nil)
	c.Load(8, 4)
	if len(seen) != len(want) {
		t.Error("disabled tracer still fired")
	}
}

func TestAccessorsAndFlushRange(t *testing.T) {
	c, d := testCPU(t)
	if c.Name() != "cpu" {
		t.Errorf("name = %q", c.Name())
	}
	if c.Config().Freq != units.GHz {
		t.Error("config accessor wrong")
	}
	// FlushRange: dirty a line inside and a line outside the range.
	c.Store(0, 4)
	c.Store(1<<16, 4)
	before := d.Stats().BytesWritten
	wbs := c.FlushRange(0, 4096)
	// The dirty L1 line writes back into the LLC, whose range flush then
	// pushes it to DRAM: one writeback at each level.
	if wbs != 2 {
		t.Errorf("range flush writebacks = %d, want 2 (L1 + LLC)", wbs)
	}
	if d.Stats().BytesWritten != before+64 {
		t.Errorf("DRAM writeback bytes = %d", d.Stats().BytesWritten-before)
	}
	if c.L1().Contains(0) {
		t.Error("in-range line survived")
	}
	if !c.L1().Contains(1 << 16) {
		t.Error("out-of-range line flushed")
	}
}

func TestNewPanics(t *testing.T) {
	cases := map[string]func(){
		"invalid config": func() {
			New(Config{}, nil, nil)
		},
		"nil memory": func() {
			cfg := Config{
				Name: "x", Freq: units.GHz,
				L1:    cache.Config{Name: "l1", Size: 1024, LineSize: 64, Ways: 4, HitLatency: 1},
				LLC:   cache.Config{Name: "llc", Size: 4096, LineSize: 64, Ways: 4, HitLatency: 1},
				Costs: isa.DefaultCPUCosts(),
			}
			New(cfg, nil, nil)
		},
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			f()
		}()
	}
}

func TestAddUncachedRangeWithoutPortPanics(t *testing.T) {
	d := memdev.New(memdev.Config{Name: "dram", Latency: 100, Bandwidth: units.GBps})
	cfg := Config{
		Name: "noport", Freq: units.GHz,
		L1:    cache.Config{Name: "l1", Size: 1024, LineSize: 64, Ways: 4, HitLatency: 1},
		LLC:   cache.Config{Name: "llc", Size: 4096, LineSize: 64, Ways: 4, HitLatency: 1},
		Costs: isa.DefaultCPUCosts(),
	}
	c := New(cfg, d.NewPort("p"), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("uncached range without port accepted")
		}
	}()
	c.AddUncachedRange(0, 64)
}

func TestConfigValidateMoreMutations(t *testing.T) {
	good := Config{
		Name: "c", Freq: units.GHz,
		L1:    cache.Config{Name: "l1", Size: 1024, LineSize: 64, Ways: 4, HitLatency: 1},
		LLC:   cache.Config{Name: "llc", Size: 4096, LineSize: 64, Ways: 4, HitLatency: 1},
		Costs: isa.DefaultCPUCosts(),
	}
	bad := good
	bad.LLC.Ways = 0
	if err := bad.Validate(); err == nil {
		t.Error("bad LLC accepted")
	}
	bad = good
	bad.Costs = isa.CostModel{Issue: map[isa.Op]units.Cycles{isa.FMA: -1}}
	if err := bad.Validate(); err == nil {
		t.Error("bad cost model accepted")
	}
	bad = good
	bad.MemMLP = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative MLP accepted")
	}
}

// TestRunSteadyStateZeroAlloc is the allocation gate on the CPU simulate hot
// path: once the program and cache state exist, executing a mixed
// compute+memory program (Exec loop, cache lookups, uncached routing)
// allocates nothing.
func TestRunSteadyStateZeroAlloc(t *testing.T) {
	c, _ := testCPU(t)
	c.AddUncachedRange(1<<20, 1<<20+4096)
	var p isa.Program
	p.Compute(isa.FMA, 32)
	for i := int64(0); i < 16; i++ {
		p.Ld(i*64, 64)
	}
	p.St(1<<20+128, 64) // pinned path
	p.Compute(isa.DivF32, 4)
	c.Run(&p) // warm the caches
	allocs := testing.AllocsPerRun(100, func() {
		c.Run(&p)
	})
	if allocs != 0 {
		t.Fatalf("warm CPU.Run allocates %v times per run, want 0", allocs)
	}
}
