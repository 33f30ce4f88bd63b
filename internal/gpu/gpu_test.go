package gpu

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"igpucomm/internal/cache"
	"igpucomm/internal/isa"
	"igpucomm/internal/memdev"
	"igpucomm/internal/units"
)

func testConfig() Config {
	return Config{
		Name:          "gpu",
		Freq:          units.GHz, // 1 cycle == 1ns
		SMs:           2,
		WarpSize:      32,
		MaxInflight:   8,
		L1:            cache.Config{Name: "gpuL1", Size: 16 * units.KiB, LineSize: 64, Ways: 4, HitLatency: 20},
		LLC:           cache.Config{Name: "gpuLLC", Size: 256 * units.KiB, LineSize: 64, Ways: 8, HitLatency: 80},
		LLCBandwidth:  100 * units.GBps,
		DRAMBandwidth: 25 * units.GBps,
		Costs:         isa.DefaultGPUCosts(),
	}
}

func testGPU(t *testing.T) (*GPU, *memdev.DRAM) {
	t.Helper()
	d := memdev.New(memdev.Config{Name: "dram", Latency: 200, Bandwidth: 25 * units.GBps})
	g := New(testConfig(), d.NewPort("gpu-dram"))
	g.SetPinnedPath(d.NewUncachedPortRW("pinned", 600, 60), 2*units.GBps)
	return g, d
}

// launch compiles k and replays it, as a Launcher's first launch of a
// kernel does.
func launch(g *GPU, k Kernel) (Result, error) {
	ck, err := g.Compile(k)
	if err != nil {
		return Result{}, err
	}
	return g.LaunchCompiled(ck)
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Freq = 0 },
		func(c *Config) { c.SMs = 0 },
		func(c *Config) { c.WarpSize = 0 },
		func(c *Config) { c.MaxInflight = 0 },
		func(c *Config) { c.LLCBandwidth = 0 },
		func(c *Config) { c.DRAMBandwidth = 0 },
		func(c *Config) { c.LaunchOverhead = -1 },
		func(c *Config) { c.L1.Size = 0 },
		func(c *Config) { c.LLC.Ways = 0 },
		func(c *Config) { c.Costs.Issue[isa.FMA] = 1.5 }, // fractional cycles
	}
	for i, mut := range mutations {
		c := testConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestLaunchErrors runs each invalid kernel through the production entry,
// Launcher.Launch, and requires the error before any cache state is
// touched: no L1, LLC, DRAM or pinned counter moves. Each emission error
// sits in warp 1, on SM 1, after warp 0 on SM 0 has issued cached and
// pinned loads, so the per-access reference executor, which executes SM 0
// before it reaches warp 1, does move them.
func TestLaunchErrors(t *testing.T) {
	const pinned = int64(1) << 20
	// valid is the loads every thread issues before its error.
	valid := func(tid int, p *isa.Program) {
		p.Ld(int64(tid)*4, 4)
		p.Ld(pinned+int64(tid)*4, 4)
	}
	cases := []struct {
		k    Kernel
		want string
	}{
		{Kernel{Name: "none", Threads: 0, Program: func(int, *isa.Program) {}}, "must be positive"},
		{Kernel{Name: "nil", Threads: 32}, "nil program"},
		{Kernel{Name: "div", Threads: 64, Program: func(tid int, p *isa.Program) {
			valid(tid, p)
			if tid >= 32 && tid%2 == 0 {
				p.Compute(isa.AddS32, 1)
			} else {
				p.Compute(isa.FMA, 1)
			}
		}}, "diverges"},
		{Kernel{Name: "lendiv", Threads: 64, Program: func(tid int, p *isa.Program) {
			valid(tid, p)
			n := 1
			if tid >= 32 && tid%2 == 1 {
				n = 2
			}
			p.Compute(isa.FMA, n)
		}}, "diverges"},
		{Kernel{Name: "badinstr", Threads: 64, Program: func(tid int, p *isa.Program) {
			valid(tid, p)
			if tid >= 32 {
				p.Ld(-4, 4)
			}
		}}, "negative address"},
	}
	counters := func(g *GPU) [4]any {
		return [4]any{g.L1Stats(), g.LLC().Stats(), g.dramPath.Stats(), g.pinnedPath.Stats()}
	}
	for i, tc := range cases {
		g, _ := testGPU(t)
		g.AddPinnedRange(pinned, pinned+8192)
		before := counters(g)
		_, err := NewLauncher(g, "").Launch(i, tc.k)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.k.Name, err, tc.want)
		}
		if after := counters(g); after != before {
			t.Errorf("%s: rejected launch moved counters:\nbefore %+v\nafter  %+v", tc.k.Name, before, after)
		}
		if tc.k.Threads < 64 {
			continue
		}
		ref, _ := testGPU(t)
		ref.AddPinnedRange(pinned, pinned+8192)
		before = counters(ref)
		if _, err := ref.launchReference(tc.k); err == nil {
			t.Errorf("%s: reference executor accepted the kernel", tc.k.Name)
		}
		if counters(ref) == before {
			t.Errorf("%s: the reference executor found the error before any access; the case proves nothing", tc.k.Name)
		}
	}
}

func TestComputeBoundKernel(t *testing.T) {
	g, _ := testGPU(t)
	// 2 warps on 2 SMs, each warp 1000 FMA => 1000 cycles = 1000ns per SM.
	res, err := launch(g, Kernel{Name: "fma", Threads: 64, Program: func(tid int, p *isa.Program) {
		p.Compute(isa.FMA, 1000)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time != 1000 {
		t.Errorf("time = %vns, want 1000", res.Time)
	}
	if res.Bound != "compute" {
		t.Errorf("bound = %q, want compute", res.Bound)
	}
	if res.Warps != 2 || res.Instructions != 64000 {
		t.Errorf("warps=%d instrs=%d", res.Warps, res.Instructions)
	}
}

func TestCoalescingAdjacentLanes(t *testing.T) {
	g, _ := testGPU(t)
	// 32 lanes loading consecutive 4-byte words: 128 bytes = 2 lines of 64.
	res, err := launch(g, Kernel{Name: "coalesced", Threads: 32, Program: func(tid int, p *isa.Program) {
		p.Ld(int64(tid)*4, 4)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions != 2 {
		t.Errorf("transactions = %d, want 2 (perfectly coalesced)", res.Transactions)
	}
	if res.TransactionBytes != 128 {
		t.Errorf("transaction bytes = %d, want 128", res.TransactionBytes)
	}
	if res.BytesRequested != 128 {
		t.Errorf("requested = %d, want 128", res.BytesRequested)
	}
}

func TestUncoalescedStride(t *testing.T) {
	g, _ := testGPU(t)
	// Each lane hits its own line: 32 transactions.
	res, err := launch(g, Kernel{Name: "strided", Threads: 32, Program: func(tid int, p *isa.Program) {
		p.Ld(int64(tid)*64, 4)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions != 32 {
		t.Errorf("transactions = %d, want 32 (one line per lane)", res.Transactions)
	}
}

func TestLatencyHidingDividesByInflight(t *testing.T) {
	cfg := testConfig()
	cfg.SMs = 1
	cfg.MaxInflight = 8
	d := memdev.New(memdev.Config{Name: "dram", Latency: 200, Bandwidth: 1000 * units.GBps})
	g := New(cfg, d.NewPort("p"))
	// 16 warps, each 1 load to its own line. Per-transaction latency:
	// 20 (L1) + 80 (LLC) + 200 (DRAM) = 300ns; 16 txns = 4800ns total,
	// hidden across min(8, 16) = 8 -> 600ns.
	res, err := launch(g, Kernel{Name: "lat", Threads: 16 * 32, Program: func(tid int, p *isa.Program) {
		warp := tid / 32
		p.Ld(int64(warp)*64, 2) // all lanes of a warp share one line
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound != "latency" {
		t.Fatalf("bound = %q, want latency (bw terms tiny here)", res.Bound)
	}
	if res.Time != 600 {
		t.Errorf("time = %vns, want 600", res.Time)
	}
}

func TestDRAMBandwidthBound(t *testing.T) {
	cfg := testConfig()
	cfg.DRAMBandwidth = 1 * units.GBps // 1 byte/ns
	d := memdev.New(memdev.Config{Name: "dram", Latency: 1, Bandwidth: units.GBps})
	g := New(cfg, d.NewPort("p"))
	// Stream 1 MiB with no reuse: DRAM moves >= 1 MiB -> >= ~1e6 ns.
	threads := 4096
	res, err := launch(g, Kernel{Name: "stream", Threads: threads, Program: func(tid int, p *isa.Program) {
		for i := 0; i < 4; i++ {
			p.Ld(int64(tid)*256+int64(i)*64, 64)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound != "dram-bw" {
		t.Errorf("bound = %q, want dram-bw", res.Bound)
	}
	wantMin := units.Latency(1 << 20) // 1 byte per ns
	if res.Time < wantMin {
		t.Errorf("time = %v, want >= %v", res.Time, wantMin)
	}
}

func TestLLCServesReuse(t *testing.T) {
	g, _ := testGPU(t)
	// Working set 64 KiB fits LLC (256 KiB) but not one L1 (16 KiB).
	// Two passes: second pass should hit in LLC heavily.
	kernel := Kernel{Name: "reuse", Threads: 1024, Program: func(tid int, p *isa.Program) {
		base := int64(tid%256) * 256
		for i := int64(0); i < 4; i++ {
			p.Ld(base+i*64, 64)
		}
	}}
	if _, err := launch(g, kernel); err != nil {
		t.Fatal(err)
	}
	res, err := launch(g, kernel)
	if err != nil {
		t.Fatal(err)
	}
	if hr := res.LLC.HitRate(); hr < 0.9 {
		t.Errorf("warm LLC hit rate = %.2f, want >= 0.9", hr)
	}
	if res.DRAM.Bytes() != 0 {
		t.Errorf("warm pass DRAM traffic = %d, want 0", res.DRAM.Bytes())
	}
}

func TestPinnedPathBypassesCaches(t *testing.T) {
	g, _ := testGPU(t)
	g.AddPinnedRange(0, 1<<20)
	res, err := launch(g, Kernel{Name: "zc", Threads: 32, Program: func(tid int, p *isa.Program) {
		p.Ld(int64(tid)*4, 4)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.L1.Accesses() != 0 || res.LLC.Accesses() != 0 {
		t.Error("pinned accesses went through GPU caches")
	}
	if res.Transactions != 32 {
		t.Errorf("transactions = %d, want 32 (no coalescing on pinned path)", res.Transactions)
	}
	if res.Pinned.Bytes() != 128 {
		t.Errorf("pinned bytes = %d, want 128", res.Pinned.Bytes())
	}
}

func TestPinnedSlowerThanCached(t *testing.T) {
	g, _ := testGPU(t)
	kernel := func(name string) Kernel {
		return Kernel{Name: name, Threads: 2048, Program: func(tid int, p *isa.Program) {
			base := int64(tid%64) * 64 // small, reusable working set
			for i := 0; i < 8; i++ {
				p.Ld(base, 4)
			}
		}}
	}
	warm, err := launch(g, kernel("warmup"))
	if err != nil {
		t.Fatal(err)
	}
	cached, err := launch(g, kernel("cached"))
	if err != nil {
		t.Fatal(err)
	}
	g.AddPinnedRange(0, 1<<20)
	pinnedRes, err := launch(g, kernel("pinned"))
	if err != nil {
		t.Fatal(err)
	}
	if pinnedRes.Time <= cached.Time*5 {
		t.Errorf("pinned %v not dramatically slower than cached %v", pinnedRes.Time, cached.Time)
	}
	_ = warm
}

func TestPartialWarp(t *testing.T) {
	g, _ := testGPU(t)
	res, err := launch(g, Kernel{Name: "partial", Threads: 40, Program: func(tid int, p *isa.Program) {
		p.Compute(isa.FMA, 1)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Warps != 2 {
		t.Errorf("warps = %d, want 2", res.Warps)
	}
	if res.Instructions != 40 {
		t.Errorf("instructions = %d, want 40", res.Instructions)
	}
}

func TestLaunchOverheadAdded(t *testing.T) {
	cfg := testConfig()
	cfg.LaunchOverhead = 5000
	d := memdev.New(memdev.Config{Name: "dram", Latency: 200, Bandwidth: 25 * units.GBps})
	g := New(cfg, d.NewPort("p"))
	res, err := launch(g, Kernel{Name: "tiny", Threads: 1, Program: func(tid int, p *isa.Program) {
		p.Compute(isa.FMA, 1)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.LaunchOverhead != 5000 {
		t.Errorf("launch overhead = %v, want 5000", res.LaunchOverhead)
	}
	if res.Time >= 5000 {
		t.Errorf("exec time %v should not include launch overhead", res.Time)
	}
}

func TestReqThroughput(t *testing.T) {
	r := Result{Time: 1000, BytesRequested: 4000} // 4000 B / 1µs = 4 GB/s
	if got := r.ReqThroughput().GB(); got < 3.999 || got > 4.001 {
		t.Errorf("throughput = %v GB/s, want 4", got)
	}
	if (Result{}).ReqThroughput() != 0 {
		t.Error("zero-time throughput should be 0")
	}
}

func TestResultDeltasIsolatedPerLaunch(t *testing.T) {
	g, _ := testGPU(t)
	k := Kernel{Name: "k", Threads: 32, Program: func(tid int, p *isa.Program) {
		p.Ld(int64(tid)*4, 4)
	}}
	r1, err := launch(g, k)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := launch(g, k)
	if err != nil {
		t.Fatal(err)
	}
	if r1.L1.Accesses() != r2.L1.Accesses() {
		t.Errorf("per-launch access deltas differ: %d vs %d", r1.L1.Accesses(), r2.L1.Accesses())
	}
	if r2.L1.Hits() == 0 {
		t.Error("second launch should hit warm caches")
	}
	if r1.L1.Hits() != 0 {
		t.Error("first launch cannot hit cold caches")
	}
}

// A range flush over all of memory empties the LLC; invalidation drops
// contents but keeps counters.
func TestFlushLLCAndInvalidate(t *testing.T) {
	g, d := testGPU(t)
	if _, err := launch(g, Kernel{Name: "w", Threads: 32, Program: func(tid int, p *isa.Program) {
		p.St(int64(tid)*64, 4)
	}}); err != nil {
		t.Fatal(err)
	}
	wbs, cost := g.FlushRange(0, math.MaxInt64, 2)
	if wbs == 0 || cost == 0 {
		t.Errorf("flush wbs=%d cost=%v, want dirty writebacks and cost", wbs, cost)
	}
	if g.LLC().ResidentLines() != 0 {
		t.Error("LLC not empty after flush")
	}
	g.InvalidateCaches()
	if g.L1Stats().Accesses() == 0 {
		t.Error("stats unexpectedly cleared by invalidate")
	}
	g.ResetStats()
	if g.L1Stats().Accesses() != 0 {
		t.Error("ResetStats did not clear L1 stats")
	}
	_ = d
}

func TestAddPinnedRangePanics(t *testing.T) {
	g, _ := testGPU(t)
	defer func() {
		if recover() == nil {
			t.Fatal("empty pinned range accepted")
		}
	}()
	g.AddPinnedRange(5, 5)
}

func TestAddPinnedRangeWithoutPathPanics(t *testing.T) {
	d := memdev.New(memdev.Config{Name: "dram", Latency: 200, Bandwidth: 25 * units.GBps})
	g := New(testConfig(), d.NewPort("p"))
	defer func() {
		if recover() == nil {
			t.Fatal("pinned range without path accepted")
		}
	}()
	g.AddPinnedRange(0, 64)
}

func TestPinnedWriteCombining(t *testing.T) {
	g, _ := testGPU(t)
	g.AddPinnedRange(0, 1<<20)
	// 32 lanes storing 4B each into one 64B-aligned region: the WC buffer
	// merges same-line stores, unlike pinned reads.
	res, err := launch(g, Kernel{Name: "wc", Threads: 32, Program: func(tid int, p *isa.Program) {
		p.St(int64(tid%16)*4, 4) // all lanes within line 0
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions != 1 {
		t.Errorf("WC store transactions = %d, want 1 (merged)", res.Transactions)
	}
	// Reads of the same addresses stay per-lane.
	res, err = launch(g, Kernel{Name: "rd", Threads: 32, Program: func(tid int, p *isa.Program) {
		p.Ld(int64(tid%16)*4, 4)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions != 32 {
		t.Errorf("pinned read transactions = %d, want 32 (uncoalesced)", res.Transactions)
	}
}

func TestPinnedWriteCombiningAcrossLines(t *testing.T) {
	g, _ := testGPU(t)
	g.AddPinnedRange(0, 1<<20)
	// Lanes span two 64B WC lines: two transactions.
	res, err := launch(g, Kernel{Name: "wc2", Threads: 32, Program: func(tid int, p *isa.Program) {
		p.St(int64(tid)*4, 4)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions != 2 {
		t.Errorf("WC transactions = %d, want 2", res.Transactions)
	}
}

func TestResidentBatchThrashesL1(t *testing.T) {
	// One warp's working set fits L1, but a resident batch of 16 such
	// warps does not: interleaved execution must evict across warps,
	// unlike a (wrong) warp-sequential model.
	cfg := testConfig()
	cfg.SMs = 1
	cfg.ResidentWarps = 16
	cfg.L1 = cache.Config{Name: "tiny", Size: 4 * units.KiB, LineSize: 64, Ways: 4, HitLatency: 20}
	d := memdev.New(memdev.Config{Name: "dram", Latency: 200, Bandwidth: 100 * units.GBps})
	g := New(cfg, d.NewPort("p"))
	// Each warp re-reads its own 1KiB slice twice; 16 warps x 1KiB = 16KiB
	// footprint >> 4KiB L1.
	res, err := launch(g, Kernel{Name: "thrash", Threads: 16 * 32, Program: func(tid int, p *isa.Program) {
		warp := tid / 32
		base := int64(warp) * 1024
		for pass := 0; pass < 2; pass++ {
			for i := int64(0); i < 16; i++ {
				p.Ld(base+i*64, 4)
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if hr := res.L1.HitRate(); hr > 0.3 {
		t.Errorf("interleaved L1 hit rate = %.2f, want thrashing (< 0.3)", hr)
	}
}

func TestSingleResidentWarpKeepsLocality(t *testing.T) {
	// With a batch of one, each warp's second pass hits its own L1 lines.
	cfg := testConfig()
	cfg.SMs = 1
	cfg.ResidentWarps = 1
	cfg.L1 = cache.Config{Name: "tiny", Size: 4 * units.KiB, LineSize: 64, Ways: 4, HitLatency: 20}
	d := memdev.New(memdev.Config{Name: "dram", Latency: 200, Bandwidth: 100 * units.GBps})
	g := New(cfg, d.NewPort("p"))
	res, err := launch(g, Kernel{Name: "local", Threads: 16 * 32, Program: func(tid int, p *isa.Program) {
		warp := tid / 32
		base := int64(warp) * 1024
		for pass := 0; pass < 2; pass++ {
			for i := int64(0); i < 16; i++ {
				p.Ld(base+i*64, 4)
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if hr := res.L1.HitRate(); hr < 0.45 {
		t.Errorf("warp-private L1 hit rate = %.2f, want ~0.5", hr)
	}
}

func TestOccupancyAndIPC(t *testing.T) {
	cfg := testConfig()
	cfg.SMs = 2
	cfg.ResidentWarps = 4
	d := memdev.New(memdev.Config{Name: "dram", Latency: 200, Bandwidth: 25 * units.GBps})
	g := New(cfg, d.NewPort("p"))
	// 4 warps over a capacity of 8: half occupancy; pure compute: IPC 1
	// on the busiest SM, 1.0 overall here because both SMs get 2 warps.
	res, err := launch(g, Kernel{Name: "occ", Threads: 4 * 32, Program: func(tid int, p *isa.Program) {
		p.Compute(isa.FMA, 100)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Occupancy != 0.5 {
		t.Errorf("occupancy = %v, want 0.5", res.Occupancy)
	}
	if res.WarpIPC < 0.9 || res.WarpIPC > 1.1 {
		t.Errorf("compute-bound IPC = %v, want ~1", res.WarpIPC)
	}
	// Oversubscription clamps at 1.0.
	res, err = launch(g, Kernel{Name: "full", Threads: 64 * 32, Program: func(tid int, p *isa.Program) {
		p.Compute(isa.FMA, 10)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Occupancy != 1 {
		t.Errorf("occupancy = %v, want clamped 1", res.Occupancy)
	}
	// A latency-bound kernel stalls: IPC well below 1.
	g2, _ := testGPU(t)
	res, err = launch(g2, Kernel{Name: "stall", Threads: 32, Program: func(tid int, p *isa.Program) {
		p.Ld(int64(tid)*64, 4)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.WarpIPC >= 0.5 {
		t.Errorf("memory-stalled IPC = %v, want low", res.WarpIPC)
	}
}

func TestResultString(t *testing.T) {
	g, _ := testGPU(t)
	res, err := launch(g, Kernel{Name: "s", Threads: 32, Program: func(tid int, p *isa.Program) {
		p.Ld(int64(tid)*4, 4)
	}})
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	for _, want := range []string{"bound", "warps", "txns"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q: %s", want, s)
		}
	}
}

// Property: random valid kernels never break the launcher's accounting.
func TestPropertyLaunchAccounting(t *testing.T) {
	g, _ := testGPU(t)
	progs := []func(tid int, p *isa.Program){
		func(tid int, p *isa.Program) { p.Compute(isa.FMA, 3) },
		func(tid int, p *isa.Program) { p.Ld(int64(tid)*4, 4) },
		func(tid int, p *isa.Program) { p.Ld(int64(tid)*64, 8).St(int64(tid)*64, 8) },
		func(tid int, p *isa.Program) {
			p.Compute(isa.LdShared, 4)
			p.St(int64(tid)*4, 4)
		},
	}
	f := func(sel, threads16 uint16) bool {
		threads := int(threads16%2048) + 1
		prog := progs[int(sel)%len(progs)]
		res, err := launch(g, Kernel{Name: "prop", Threads: threads, Program: prog})
		if err != nil {
			return false
		}
		wantWarps := (threads + 31) / 32
		if res.Warps != wantWarps {
			return false
		}
		if res.Time < 0 || res.Occupancy < 0 || res.Occupancy > 1 {
			return false
		}
		// Demand traffic is consistent: transaction bytes cover requests
		// only when memory ops exist.
		if res.BytesRequested > 0 && res.Transactions == 0 {
			return false
		}
		return res.Instructions > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTraceMatchesLaunchTransactions(t *testing.T) {
	// The trace exporter is the compile pass's CSV writer: its rows, in
	// order, are the transaction stream LaunchCompiled replays.
	g, _ := testGPU(t)
	g.AddPinnedRange(1<<20, 2<<20)
	kernel := Kernel{Name: "mixed", Threads: 96, Program: func(tid int, p *isa.Program) {
		p.Ld(int64(tid)*4, 4)         // cached, coalesced
		p.Ld(1<<20+int64(tid)*64, 4)  // pinned reads, per lane
		p.St(1<<20+int64(tid%8)*4, 4) // pinned writes, WC-merged
		p.St(int64(tid)*64, 8)        // cached, strided
		p.Compute(isa.FMA, 2)
	}}
	var buf bytes.Buffer
	if err := g.TraceTransactions(kernel, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "warp,instr,kind,path,addr,size" {
		t.Errorf("header = %q", lines[0])
	}
	ck, err := g.Compile(kernel)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, c := range ck.chunks[:ck.used] {
		for i, a := range c.accs {
			path := "cached"
			if c.paths[i] == pathPinned {
				path = "pinned"
				if a.Kind == cache.Write {
					path = "pinned-wc"
				}
			}
			want = append(want, fmt.Sprintf("%s,%s,%d,%d", a.Kind, path, a.Addr, a.Size))
		}
	}
	rows := lines[1:]
	if len(rows) != len(want) {
		t.Fatalf("trace has %d rows, compiled stream %d transactions", len(rows), len(want))
	}
	paths := map[string]bool{}
	for i, row := range rows {
		f := strings.SplitN(row, ",", 3)
		if f[2] != want[i] {
			t.Fatalf("row %d = %q, compiled stream has %q", i, f[2], want[i])
		}
		paths[strings.Split(f[2], ",")[1]] = true
	}
	if !paths["pinned"] || !paths["pinned-wc"] || !paths["cached"] {
		t.Errorf("trace missing a path: %v", paths)
	}
	res, err := g.LaunchCompiled(ck)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions != int64(len(rows)) {
		t.Errorf("trace has %d transactions, launch counted %d", len(rows), res.Transactions)
	}
}

func TestTraceErrors(t *testing.T) {
	g, _ := testGPU(t)
	if err := g.TraceTransactions(Kernel{Name: "none", Threads: 0}, io.Discard); err == nil {
		t.Error("zero threads accepted")
	}
	if err := g.TraceTransactions(Kernel{Name: "nil", Threads: 4}, io.Discard); err == nil {
		t.Error("nil program accepted")
	}
	div := Kernel{Name: "div", Threads: 32, Program: func(tid int, p *isa.Program) {
		p.Compute(isa.FMA, 1+tid%2)
		p.Ld(0, 4)
	}}
	err := g.TraceTransactions(div, io.Discard)
	_, launchErr := NewLauncher(g, "").Launch(0, div)
	if err == nil || launchErr == nil || err.Error() != launchErr.Error() {
		t.Errorf("divergent kernel: trace error %v, want the launch's %v", err, launchErr)
	}
}

func TestPadToResolvesDivergence(t *testing.T) {
	g, _ := testGPU(t)
	// Without padding this kernel diverges; PadTo makes it legal.
	_, err := launch(g, Kernel{Name: "padded", Threads: 32, Program: func(tid int, p *isa.Program) {
		if tid%2 == 0 {
			p.Compute(isa.FMA, 4)
		} else {
			p.Compute(isa.FMA, 2)
		}
		p.PadTo(4)
	}})
	if err != nil {
		t.Fatalf("padded kernel rejected: %v", err)
	}
}

func TestMaskedMemorySlot(t *testing.T) {
	// Odd lanes are masked off a load slot: only even lanes contribute
	// addresses (predicated memory access).
	g, _ := testGPU(t)
	res, err := launch(g, Kernel{Name: "masked", Threads: 32, Program: func(tid int, p *isa.Program) {
		if tid%2 == 0 {
			p.Ld(int64(tid)*64, 4)
		}
		p.PadTo(1)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions != 16 {
		t.Errorf("transactions = %d, want 16 (half the lanes masked)", res.Transactions)
	}
	if res.BytesRequested != 16*4 {
		t.Errorf("requested = %d, want 64", res.BytesRequested)
	}
}

func TestAccessorsAndFlushRangeGPU(t *testing.T) {
	g, _ := testGPU(t)
	if g.Name() != "gpu" {
		t.Errorf("name = %q", g.Name())
	}
	if g.Config().SMs != 2 {
		t.Error("config accessor wrong")
	}
	// Dirty lines inside and outside the range via a store kernel.
	if _, err := launch(g, Kernel{Name: "w", Threads: 32, Program: func(tid int, p *isa.Program) {
		p.St(int64(tid)*64, 4)
		p.St(1<<16+int64(tid)*64, 4)
	}}); err != nil {
		t.Fatal(err)
	}
	wbs, cost := g.FlushRange(0, 2048, 2)
	// Each in-range line writes back once from its SM's L1 into the LLC
	// and once from the LLC to DRAM.
	if wbs != 64 {
		t.Errorf("range flush writebacks = %d, want 64 (32 L1 + 32 LLC)", wbs)
	}
	if cost <= 0 {
		t.Error("flush cost missing")
	}
	if !g.LLC().Contains(1<<16) && g.L1Stats().Accesses() > 0 {
		// The out-of-range lines must survive in some level.
		found := false
		for addr := int64(1 << 16); addr < 1<<16+2048; addr += 64 {
			if g.LLC().Contains(addr) {
				found = true
				break
			}
		}
		if !found {
			t.Error("out-of-range lines flushed")
		}
	}
	// ClearPinnedRanges: pinned routing is removable.
	g.AddPinnedRange(0, 4096)
	g.ClearPinnedRanges()
	res, err := launch(g, Kernel{Name: "r", Threads: 32, Program: func(tid int, p *isa.Program) {
		p.Ld(int64(tid)*4, 4)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pinned.Bytes() != 0 {
		t.Error("cleared pinned range still routed")
	}
	if res.L1HitRate() < 0 {
		t.Error("L1HitRate accessor broken")
	}
}

func TestNewGPUPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"invalid config": func() { New(Config{}, nil) },
		"nil dram": func() {
			New(testConfig(), nil)
		},
	} {
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

func TestTraceWriterErrors(t *testing.T) {
	g, _ := testGPU(t)
	k := Kernel{Name: "k", Threads: 32, Program: func(tid int, p *isa.Program) {
		p.Ld(int64(tid)*4, 4)
	}}
	if err := g.TraceTransactions(k, failingWriter{}); err == nil {
		t.Error("writer failure not propagated")
	}
}

type failingWriter struct{}

func (failingWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }
