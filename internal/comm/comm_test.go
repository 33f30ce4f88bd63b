package comm

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"igpucomm/internal/cpu"
	"igpucomm/internal/devices"
	"igpucomm/internal/gpu"
	"igpucomm/internal/isa"
	"igpucomm/internal/mmu"
	"igpucomm/internal/soc"
	"igpucomm/internal/units"
)

// streamWorkload builds a simple producer/consumer workload: the CPU writes
// n floats into "in", the GPU reads them and writes n floats to "out".
func streamWorkload(n int64, overlappable bool) Workload {
	size := n * 4
	return Workload{
		Name: "stream",
		In:   []BufferSpec{{Name: "in", Size: size}},
		Out:  []BufferSpec{{Name: "out", Size: size}},
		CPUTask: func(c *cpu.CPU, lay Layout) {
			base := lay.Addr("in")
			for i := int64(0); i < n; i += 16 { // one store per line
				c.Store(base+i*4, 4)
				c.Work(isa.MulF32, 2)
			}
		},
		MakeKernel: func(lay Layout, launch int) gpu.Kernel {
			in, out := lay.Addr("in"), lay.Addr("out")
			return gpu.Kernel{
				Name:    "stream",
				Threads: int(n),
				Program: func(tid int, p *isa.Program) {
					p.Ld(in+int64(tid)*4, 4)
					p.Compute(isa.FMA, 2)
					p.St(out+int64(tid)*4, 4)
				},
			}
		},
		Overlappable: overlappable,
		Warmup:       1,
	}
}

func TestWorkloadValidate(t *testing.T) {
	good := streamWorkload(1024, false)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	cases := map[string]func(*Workload){
		"no name":     func(w *Workload) { w.Name = "" },
		"nil kernel":  func(w *Workload) { w.MakeKernel = nil },
		"nil cputask": func(w *Workload) { w.CPUTask = nil },
		"no buffers":  func(w *Workload) { w.In, w.Out = nil, nil },
		"zero size":   func(w *Workload) { w.In[0].Size = 0 },
		"dup name":    func(w *Workload) { w.Out[0].Name = "in" },
		"neg warmup":  func(w *Workload) { w.Warmup = -1 },
	}
	for name, mut := range cases {
		w := streamWorkload(1024, false)
		mut(&w)
		if err := w.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestWorkloadByteTotals(t *testing.T) {
	w := streamWorkload(1024, false)
	if w.BytesIn() != 4096 || w.BytesOut() != 4096 {
		t.Errorf("bytes in/out = %d/%d, want 4096/4096", w.BytesIn(), w.BytesOut())
	}
}

func TestLayoutPanicsOnUnknown(t *testing.T) {
	lay := Layout{}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown buffer name accepted")
		}
	}()
	lay.Addr("ghost")
}

func TestByName(t *testing.T) {
	for _, name := range []string{"sc", "um", "zc"} {
		m, err := ByName(name)
		if err != nil || m.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, m, err)
		}
	}
	if _, err := ByName("dma"); err == nil {
		t.Error("unknown model accepted")
	}
	if len(Models()) != 3 {
		t.Error("Models() should return the three paper models")
	}
}

func TestSCReportStructure(t *testing.T) {
	s := soc.New(devices.TX2())
	rep, err := SC{}.Run(s, streamWorkload(4096, false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Model != "sc" || rep.Platform != devices.TX2Name || rep.Workload != "stream" {
		t.Errorf("identity fields wrong: %+v", rep)
	}
	if rep.CopyTime <= 0 {
		t.Error("SC must report copy time")
	}
	if rep.CopyBytes != 2*4096*4 {
		t.Errorf("copy bytes = %d, want both buffers = %d", rep.CopyBytes, 2*4096*4)
	}
	if rep.FlushTime <= 0 {
		t.Error("SC must pay software-coherence flushes")
	}
	if rep.KernelTime <= 0 || rep.CPUTime <= 0 {
		t.Error("missing component times")
	}
	if rep.Total != rep.CPUTime+rep.FlushTime+rep.CopyTime+rep.KernelTime+rep.LaunchTime {
		t.Error("SC total is not the serialized sum")
	}
	if rep.LaunchTime <= 0 {
		t.Error("launch overhead not accounted")
	}
	if rep.Overlapped {
		t.Error("SC cannot overlap")
	}
	if rep.Energy.Runtime != rep.Total || rep.Energy.CopyBytes != rep.CopyBytes {
		t.Error("energy activity inconsistent")
	}
}

func TestUMMigratesInsteadOfCopying(t *testing.T) {
	s := soc.New(devices.TX2())
	rep, err := UM{}.Run(s, streamWorkload(4096, false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Model != "um" {
		t.Errorf("model = %q", rep.Model)
	}
	if rep.CopyTime <= 0 {
		t.Error("UM must report migration time as copy time")
	}
	if rep.CopyBytes <= 0 {
		t.Error("UM must migrate bytes on the warm iteration (ping-pong)")
	}
	if rep.FlushTime != 0 {
		t.Error("UM does not flush caches")
	}
}

func TestZCNeverCopies(t *testing.T) {
	s := soc.New(devices.TX2())
	rep, err := ZC{}.Run(s, streamWorkload(4096, false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CopyTime != 0 || rep.CopyBytes != 0 || rep.FlushTime != 0 {
		t.Errorf("ZC paid copy/flush costs: %+v", rep)
	}
	if rep.Total != rep.CPUTime+rep.KernelTime+rep.LaunchTime {
		t.Error("non-overlappable ZC total should be serialized sum")
	}
}

func TestZCOverlapShortensTotal(t *testing.T) {
	s := soc.New(devices.Xavier())
	serial, err := ZC{}.Run(s, streamWorkload(1<<15, false))
	if err != nil {
		t.Fatal(err)
	}
	overlapped, err := ZC{}.Run(s, streamWorkload(1<<15, true))
	if err != nil {
		t.Fatal(err)
	}
	if !overlapped.Overlapped {
		t.Fatal("overlappable workload did not overlap")
	}
	if overlapped.Total >= serial.Total {
		t.Errorf("overlap total %v not below serial %v", overlapped.Total, serial.Total)
	}
	// Overlap can never beat the slower of the two tasks.
	floor := overlapped.CPUTime
	if overlapped.KernelTime > floor {
		floor = overlapped.KernelTime
	}
	if overlapped.Total < floor {
		t.Errorf("overlap total %v below max component %v", overlapped.Total, floor)
	}
}

func TestZCKernelSlowdownOnTX2VsXavier(t *testing.T) {
	// The same cache-friendly kernel must lose far more from ZC on TX2
	// (uncached pinned path) than on Xavier (I/O-coherent path).
	w := streamWorkload(1<<14, false)
	ratios := make(map[string]float64)
	for _, cfg := range []string{devices.TX2Name, devices.XavierName} {
		s, err := devices.NewSoC(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := SC{}.Run(s, w)
		if err != nil {
			t.Fatal(err)
		}
		zc, err := ZC{}.Run(s, w)
		if err != nil {
			t.Fatal(err)
		}
		ratios[cfg] = float64(zc.KernelTime) / float64(sc.KernelTime)
	}
	if ratios[devices.TX2Name] <= ratios[devices.XavierName] {
		t.Errorf("ZC kernel penalty TX2 %.2fx should exceed Xavier %.2fx",
			ratios[devices.TX2Name], ratios[devices.XavierName])
	}
}

func TestModelsRejectInvalidWorkload(t *testing.T) {
	s := soc.New(devices.TX2())
	bad := streamWorkload(1024, false)
	bad.Name = ""
	for _, m := range AllModels() {
		if _, err := m.Run(s, bad); err == nil {
			t.Errorf("%s accepted invalid workload", m.Name())
		}
	}
}

func TestModelsRejectDivergentKernel(t *testing.T) {
	s := soc.New(devices.TX2())
	w := streamWorkload(1024, false)
	w.MakeKernel = func(lay Layout, launch int) gpu.Kernel {
		return gpu.Kernel{Name: "div", Threads: 32, Program: func(tid int, p *isa.Program) {
			p.Compute(isa.FMA, 1+tid%2)
		}}
	}
	for _, m := range AllModels() {
		if _, err := m.Run(s, w); err == nil || !strings.Contains(err.Error(), "diverges") {
			t.Errorf("%s: divergence error missing, got %v", m.Name(), err)
		}
	}
}

// TestSequentialRunsIndependent runs every model twice in turn on one
// platform: a run's Report must not depend on what ran before it.
func TestSequentialRunsIndependent(t *testing.T) {
	s := soc.New(devices.TX2())
	w := streamWorkload(4096, false)
	first := make(map[string]Report)
	for round := 0; round < 2; round++ {
		for _, m := range AllModels() {
			rep, err := m.Run(s, w)
			if err != nil {
				t.Fatal(err)
			}
			if round == 0 {
				first[m.Name()] = rep
			} else if !reflect.DeepEqual(rep, first[m.Name()]) {
				t.Errorf("%s: repeat run differs (state leak):\n%+v\nvs\n%+v", m.Name(), rep, first[m.Name()])
			}
		}
	}
}

func TestMultiLaunchStripesCopies(t *testing.T) {
	s := soc.New(devices.TX2())
	w := streamWorkload(4096, false)
	w.Launches = 4
	w.MakeKernel = func(lay Layout, launch int) gpu.Kernel {
		in, out := lay.Addr("in"), lay.Addr("out")
		per := 4096 / 4
		return gpu.Kernel{
			Name:    "stripe",
			Threads: per,
			Program: func(tid int, p *isa.Program) {
				off := int64(launch*per+tid) * 4
				p.Ld(in+off, 4)
				p.St(out+off, 4)
			},
		}
	}
	rep, err := SC{}.Run(s, w)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Launches != 4 {
		t.Errorf("launches = %d, want 4", rep.Launches)
	}
	// Striped copies still move every byte exactly once.
	if rep.CopyBytes != 2*4096*4 {
		t.Errorf("copy bytes = %d, want %d", rep.CopyBytes, 2*4096*4)
	}
	if rep.KernelTimePer() >= rep.KernelTime {
		t.Error("per-kernel time should be below the 4-launch total")
	}
	if got := rep.CopyTimePer() * 4; got != rep.CopyTime {
		t.Errorf("CopyTimePer*4 = %v, want %v", got, rep.CopyTime)
	}
}

// TestReductionIsCacheDependent: a kernel that re-reads an LLC-resident
// buffer (32 KiB, eight passes) must lose at least half its speed under ZC
// on TX2, whose pinned path bypasses the GPU caches.
func TestReductionIsCacheDependent(t *testing.T) {
	const n = 1 << 13
	w := streamWorkload(n, false)
	w.MakeKernel = func(lay Layout, launch int) gpu.Kernel {
		in, out := lay.Addr("in"), lay.Addr("out")
		return gpu.Kernel{Name: "reduce", Threads: n, Program: func(tid int, p *isa.Program) {
			for pass := 0; pass < 8; pass++ {
				p.Ld(in+int64(tid)*4, 4)
				p.Compute(isa.AddS32, 1)
			}
			p.Compute(isa.FMA, 4)
			p.St(out+int64(tid)*4, 4)
		}}
	}
	s := soc.New(devices.TX2())
	sc, err := SC{}.Run(s, w)
	if err != nil {
		t.Fatal(err)
	}
	zc, err := ZC{}.Run(s, w)
	if err != nil {
		t.Fatal(err)
	}
	if zc.KernelTime < sc.KernelTime*2 {
		t.Errorf("reduction under ZC (%v) should suffer vs SC (%v) on TX2", zc.KernelTime, sc.KernelTime)
	}
}

// TestModelAccountingInvariants checks the cross-model accounting
// invariants on every model, over single- and multi-launch, serialized and
// overlappable workloads of several sizes:
//   - ZC never copies or flushes;
//   - SC's copy bytes equal the declared transfer volume;
//   - every total is at least its longer CPU or kernel component;
//   - energy activity mirrors the report.
func TestModelAccountingInvariants(t *testing.T) {
	s := soc.New(devices.TX2())
	for _, n := range []int64{1024, 1 << 14} {
		for _, launches := range []int{1, 4} {
			for _, overlappable := range []bool{false, true} {
				w := streamWorkload(n, overlappable)
				w.Launches = launches
				per := int(n) / launches
				w.MakeKernel = func(lay Layout, launch int) gpu.Kernel {
					in, out := lay.Addr("in"), lay.Addr("out")
					return gpu.Kernel{Name: "stripe", Threads: per, Program: func(tid int, p *isa.Program) {
						off := int64(launch*per+tid) * 4
						p.Ld(in+off, 4)
						p.Compute(isa.FMA, 2)
						p.St(out+off, 4)
					}}
				}
				for _, m := range AllModels() {
					rep, err := m.Run(s, w)
					if err != nil {
						t.Fatalf("%s n=%d launches=%d: %v", m.Name(), n, launches, err)
					}
					where := fmt.Sprintf("%s n=%d launches=%d overlappable=%v", m.Name(), n, launches, overlappable)
					switch m.Name() {
					case "zc":
						if rep.CopyTime != 0 || rep.CopyBytes != 0 || rep.FlushTime != 0 {
							t.Errorf("%s: paid copy/flush costs: %+v", where, rep)
						}
					case "sc", "sc-async":
						if rep.CopyBytes != w.BytesIn()+w.BytesOut() {
							t.Errorf("%s: copy bytes %d, want %d", where, rep.CopyBytes, w.BytesIn()+w.BytesOut())
						}
					}
					if rep.Total < rep.KernelTime || rep.Total < rep.CPUTime {
						t.Errorf("%s: total %v below a component (cpu %v, kernel %v)", where, rep.Total, rep.CPUTime, rep.KernelTime)
					}
					if rep.Energy.Runtime != rep.Total || rep.Energy.CopyBytes != rep.CopyBytes {
						t.Errorf("%s: energy activity inconsistent with the report", where)
					}
				}
			}
		}
	}
}

func TestReportThroughput(t *testing.T) {
	r := Report{Total: units.Latency(1e6)} // 1ms
	if got := r.Throughput(); got < 999 || got > 1001 {
		t.Errorf("throughput = %v it/s, want ~1000", got)
	}
	if (Report{}).Throughput() != 0 {
		t.Error("zero-total throughput should be 0")
	}
}

func TestSCAsyncHidesCopies(t *testing.T) {
	s := soc.New(devices.Xavier())
	w := streamWorkload(1<<16, false)
	w.Launches = 8
	w.MakeKernel = func(lay Layout, launch int) gpu.Kernel {
		in, out := lay.Addr("in"), lay.Addr("out")
		per := (1 << 16) / 8
		return gpu.Kernel{
			Name:    "stripe",
			Threads: per,
			Program: func(tid int, p *isa.Program) {
				off := int64(launch*per+tid) * 4
				p.Ld(in+off, 4)
				p.Compute(isa.FMA, 64)
				p.St(out+off, 4)
			},
		}
	}
	sync, err := SC{}.Run(s, w)
	if err != nil {
		t.Fatal(err)
	}
	async, err := SCAsync{}.Run(s, w)
	if err != nil {
		t.Fatal(err)
	}
	if !async.Overlapped {
		t.Error("sc-async should report overlap")
	}
	if async.Total >= sync.Total {
		t.Errorf("sc-async %v not faster than sc %v", async.Total, sync.Total)
	}
	// The pipeline can never beat the busiest single resource.
	floor := async.KernelTime
	if async.CopyTime > floor {
		floor = async.CopyTime
	}
	if async.Total < async.CPUTime+floor {
		t.Errorf("sc-async total %v below its resource floor %v", async.Total, async.CPUTime+floor)
	}
	// Same bytes still move.
	if async.CopyBytes != sync.CopyBytes {
		t.Errorf("copy bytes differ: %d vs %d", async.CopyBytes, sync.CopyBytes)
	}
}

func TestSCAsyncInByName(t *testing.T) {
	m, err := ByName("sc-async")
	if err != nil || m.Name() != "sc-async" {
		t.Fatalf("ByName(sc-async) = %v, %v", m, err)
	}
	if len(AllModels()) < 4 {
		t.Error("AllModels should include the extensions")
	}
	if len(Models()) != 3 {
		t.Error("Models should stay the paper's 3")
	}
}

func TestScratchBuffersNotCopied(t *testing.T) {
	s := soc.New(devices.TX2())
	w := streamWorkload(4096, false)
	w.Scratch = []BufferSpec{{Name: "work", Size: 1 << 20}}
	base, err := SC{}.Run(s, streamWorkload(4096, false))
	if err != nil {
		t.Fatal(err)
	}
	withScratch, err := SC{}.Run(s, w)
	if err != nil {
		t.Fatal(err)
	}
	if withScratch.CopyBytes != base.CopyBytes {
		t.Errorf("scratch inflated copies: %d vs %d", withScratch.CopyBytes, base.CopyBytes)
	}
}

func TestScratchPinnedUnderZC(t *testing.T) {
	s := soc.New(devices.TX2())
	w := streamWorkload(4096, false)
	w.Scratch = []BufferSpec{{Name: "work", Size: 64 * 1024}}
	kernelTouchingScratch := func(lay Layout, launch int) gpu.Kernel {
		workBuf := lay.Addr("work")
		return gpu.Kernel{Name: "scratchy", Threads: 1024, Program: func(tid int, p *isa.Program) {
			p.Ld(workBuf+int64(tid)*4, 4)
		}}
	}
	w.MakeKernel = kernelTouchingScratch
	zc, err := ZC{}.Run(s, w)
	if err != nil {
		t.Fatal(err)
	}
	if zc.GPU.Pinned.Bytes() == 0 {
		t.Error("ZC kernel's scratch accesses should take the pinned path")
	}
	sc, err := SC{}.Run(s, w)
	if err != nil {
		t.Fatal(err)
	}
	if sc.GPU.Pinned.Bytes() != 0 {
		t.Error("SC kernel's scratch accesses must stay on the cached path")
	}
}

func TestUMPrefetchCheaperThanDemandFaults(t *testing.T) {
	s := soc.New(devices.TX2())
	w := streamWorkload(1<<16, false)
	demand, err := UM{}.Run(s, w)
	if err != nil {
		t.Fatal(err)
	}
	w.UMPrefetch = true
	prefetch, err := UM{}.Run(s, w)
	if err != nil {
		t.Fatal(err)
	}
	if prefetch.CopyBytes != demand.CopyBytes {
		t.Errorf("prefetch moved %d bytes vs demand %d — the traffic must match", prefetch.CopyBytes, demand.CopyBytes)
	}
	if prefetch.CopyTime >= demand.CopyTime {
		t.Errorf("prefetch migration time %v not below demand %v", prefetch.CopyTime, demand.CopyTime)
	}
	if prefetch.Total >= demand.Total {
		t.Errorf("prefetch total %v not below demand %v", prefetch.Total, demand.Total)
	}
}

func TestReportString(t *testing.T) {
	s := soc.New(devices.TX2())
	rep, err := SC{}.Run(s, streamWorkload(1024, false))
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{"jetson-tx2", "stream", "sc", "total", "copies"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q: %s", want, out)
		}
	}
}

func TestHybridCopiesInputsOnly(t *testing.T) {
	s := soc.New(devices.TX2())
	w := streamWorkload(1<<14, false)
	sc, err := SC{}.Run(s, w)
	if err != nil {
		t.Fatal(err)
	}
	hy, err := Hybrid{}.Run(s, w)
	if err != nil {
		t.Fatal(err)
	}
	if hy.Model != "hybrid" {
		t.Errorf("model = %q", hy.Model)
	}
	// Only the In buffer is copied: exactly half of SC's copy traffic here.
	if hy.CopyBytes != w.BytesIn() {
		t.Errorf("hybrid copy bytes = %d, want inputs only %d", hy.CopyBytes, w.BytesIn())
	}
	if hy.CopyBytes >= sc.CopyBytes {
		t.Error("hybrid should copy less than SC")
	}
	// The kernel writes its outputs through the pinned path.
	if hy.GPU.Pinned.BytesWritten == 0 {
		t.Error("hybrid outputs did not take the pinned path")
	}
	// Inputs stay on the cached path.
	if hy.GPU.Pinned.BytesRead != 0 {
		t.Error("hybrid inputs leaked onto the pinned path")
	}
}

func TestHybridInAllModels(t *testing.T) {
	if len(AllModels()) != 5 {
		t.Error("AllModels should list 5 models")
	}
	m, err := ByName("hybrid")
	if err != nil || m.Name() != "hybrid" {
		t.Fatalf("ByName(hybrid) = %v, %v", m, err)
	}
}

// TestAllocationFailureInjection starves the platform of memory and checks
// that every model fails cleanly — and that the platform remains usable for
// a subsequent, smaller run (no leaked allocations or routing).
func TestAllocationFailureInjection(t *testing.T) {
	cfg := devices.TX2()
	cfg.MemBytes = 256 * 1024 // far too small for the big workload
	s := soc.New(cfg)
	big := streamWorkload(1<<20, false) // 4MiB buffers cannot fit
	for _, m := range AllModels() {
		if _, err := m.Run(s, big); err == nil {
			t.Errorf("%s: gigantic workload accepted on a starved platform", m.Name())
		}
	}
	small := streamWorkload(1024, false)
	for _, m := range AllModels() {
		if _, err := m.Run(s, small); err != nil {
			t.Errorf("%s: platform unusable after allocation failures: %v", m.Name(), err)
		}
	}
}

func TestUMMigrationInvalidatesCPUCache(t *testing.T) {
	// When a page migrates to the GPU, the driver must drop the CPU's
	// cached copies: re-reading after the kernel misses instead of serving
	// stale lines.
	s := soc.New(devices.TX2())
	w := streamWorkload(4096, false)
	if _, err := (UM{}).Run(s, w); err != nil {
		t.Fatal(err)
	}
	// Allocate the same managed range again and drive the sequence by hand.
	s.ResetState()
	buf, err := s.AllocManaged("probe", 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	s.CPU.Load(buf.Addr, 4) // CPU caches the line
	if !s.CPU.L1().Contains(buf.Addr) {
		t.Fatal("line not cached")
	}
	s.Migrator.Touch(buf.Addr, buf.Size, mmu.OwnerCPU)
	f, _ := s.Migrator.Touch(buf.Addr, buf.Size, mmu.OwnerGPU)
	if f == 0 {
		t.Fatal("no migration happened")
	}
	// The UM model pairs every GPU-side Touch with a CPU cache invalidation;
	// replicate it and verify the consequence.
	s.CPU.L1().FlushRange(buf.Addr, buf.End(), 0)
	s.CPU.LLC().FlushRange(buf.Addr, buf.End(), 0)
	if s.CPU.L1().Contains(buf.Addr) || s.CPU.LLC().Contains(buf.Addr) {
		t.Error("CPU caches kept a migrated page's lines")
	}
}
