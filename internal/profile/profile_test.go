package profile

import (
	"context"
	"math"
	"testing"

	"igpucomm/internal/cache"
	"igpucomm/internal/comm"
	"igpucomm/internal/cpu"
	"igpucomm/internal/devices"
	"igpucomm/internal/gpu"
	"igpucomm/internal/isa"
	"igpucomm/internal/soc"
	"igpucomm/internal/units"
)

func testWorkload() comm.Workload {
	const n = 4096
	return comm.Workload{
		Name: "prof",
		In:   []comm.BufferSpec{{Name: "in", Size: n * 4}},
		Out:  []comm.BufferSpec{{Name: "out", Size: n * 4}},
		CPUTask: func(c *cpu.CPU, lay comm.Layout) {
			base := lay.Addr("in")
			for i := int64(0); i < n; i++ {
				c.Store(base+i*4, 4)
			}
		},
		MakeKernel: func(lay comm.Layout, launch int) gpu.Kernel {
			in, out := lay.Addr("in"), lay.Addr("out")
			return gpu.Kernel{
				Name:    "k",
				Threads: n,
				Program: func(tid int, p *isa.Program) {
					p.Ld(in+int64(tid)*4, 4)
					p.St(out+int64(tid)*4, 4)
				},
			}
		},
		Warmup: 1,
	}
}

// TestStridedScanShowsCPUCacheUsage: a CPU routine that scans a 256 KiB
// buffer one line at a time, three times over, misses L1 but is served by
// the LLC, so its profile must show clearly positive CPU cache usage.
func TestStridedScanShowsCPUCacheUsage(t *testing.T) {
	const n = 1 << 16
	w := testWorkload()
	w.In = []comm.BufferSpec{{Name: "in", Size: n * 4}}
	w.Out = []comm.BufferSpec{{Name: "out", Size: n * 4}}
	w.CPUTask = func(c *cpu.CPU, lay comm.Layout) {
		base := lay.Addr("in")
		for pass := 0; pass < 3; pass++ {
			for line := int64(0); line < n*4/64; line++ {
				c.Load(base+line*64, 4)
				c.Work(isa.FMA, 1)
			}
		}
	}
	p, err := Collect(context.Background(), soc.New(devices.TX2()), w, comm.SC{})
	if err != nil {
		t.Fatal(err)
	}
	if p.CPUCacheUsagePerInstr <= 0.02 {
		t.Errorf("strided scan CPU cache usage = %v, want clearly positive", p.CPUCacheUsagePerInstr)
	}
}

func TestCollectFillsEverything(t *testing.T) {
	s := soc.New(devices.TX2())
	p, err := Collect(context.Background(), s, testWorkload(), comm.SC{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Platform != devices.TX2Name || p.Workload != "prof" || p.Model != "sc" {
		t.Errorf("identity fields wrong: %+v", p)
	}
	if p.Transactions == 0 || p.TransactionBytes == 0 {
		t.Error("no transactions recorded")
	}
	if p.KernelTime <= 0 || p.CPUTime <= 0 || p.Total <= 0 {
		t.Error("missing times")
	}
	if p.GPUDemand <= 0 {
		t.Error("no GPU demand computed")
	}
	if p.CopyTimePer <= 0 {
		t.Error("SC profile must include copy time per kernel")
	}
	if p.CPUCacheUsage < 0 || p.CPUCacheUsage > 1 {
		t.Errorf("CPU cache usage out of range: %v", p.CPUCacheUsage)
	}
}

func TestCollectNilModel(t *testing.T) {
	s := soc.New(devices.TX2())
	if _, err := Collect(context.Background(), s, testWorkload(), nil); err == nil {
		t.Error("nil model accepted")
	}
}

func TestCollectPropagatesErrors(t *testing.T) {
	s := soc.New(devices.TX2())
	w := testWorkload()
	w.Name = ""
	if _, err := Collect(context.Background(), s, w, comm.SC{}); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestGPUCacheUsageNormalization(t *testing.T) {
	p := Profile{GPUDemand: 48.5 * units.GBps}
	if got := p.GPUCacheUsage(97 * units.GBps); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("usage = %v, want 0.5", got)
	}
	if p.GPUCacheUsage(0) != 0 {
		t.Error("zero peak should give 0")
	}
}

func TestFromReportConsistentWithCollect(t *testing.T) {
	s := soc.New(devices.TX2())
	rep, err := comm.SC{}.Run(s, testWorkload())
	if err != nil {
		t.Fatal(err)
	}
	p := FromReport(rep)
	p2, err := Collect(context.Background(), s, testWorkload(), comm.SC{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Transactions != p2.Transactions || p.KernelTime != p2.KernelTime {
		t.Error("FromReport and Collect disagree on identical runs")
	}
}

func TestGPUDemandReflectsL1Hits(t *testing.T) {
	// A kernel whose warm L1 absorbs everything should show low demand.
	s := soc.New(devices.TX2())
	reuse := testWorkload()
	reuse.Name = "reuse"
	reuse.MakeKernel = func(lay comm.Layout, launch int) gpu.Kernel {
		in := lay.Addr("in")
		return gpu.Kernel{
			Name:    "hot",
			Threads: 4096,
			Program: func(tid int, p *isa.Program) {
				// Every warp re-reads the same single line, repeatedly.
				for i := 0; i < 8; i++ {
					p.Ld(in, 4)
				}
			},
		}
	}
	hot, err := Collect(context.Background(), s, reuse, comm.SC{})
	if err != nil {
		t.Fatal(err)
	}
	if hot.GPUL1HitRate < 0.9 {
		t.Errorf("hot-loop L1 hit rate = %v, want high", hot.GPUL1HitRate)
	}
	stream, err := Collect(context.Background(), s, testWorkload(), comm.SC{})
	if err != nil {
		t.Fatal(err)
	}
	if hot.GPUCacheUsage(97*units.GBps) >= stream.GPUCacheUsage(97*units.GBps) {
		t.Error("L1-resident kernel should show lower LL demand than streaming kernel")
	}
}

// TestFromReportClampsCorruptCounters covers the guard in front of the
// GPUDemand math: fault-injected runs can hand FromReport reports whose raw
// counters are physically impossible (negative byte totals, hit counts above
// access counts). The clamp keeps the derived demand inside [0, peak] instead
// of propagating nonsense into the classification.
func TestFromReportClampsCorruptCounters(t *testing.T) {
	const kt = units.Latency(1000)
	mk := func(txBytes, reads, readHits int64) comm.Report {
		return comm.Report{
			KernelTime: kt,
			GPU: gpu.Result{
				L1:               cache.Stats{Reads: reads, ReadHits: readHits},
				TransactionBytes: txBytes,
			},
		}
	}
	tests := []struct {
		name      string
		rep       comm.Report
		wantBytes int64
		wantHit   float64
	}{
		{"in-range passes through", mk(1000, 10, 5), 1000, 0.5},
		{"negative bytes clamp to zero", mk(-4096, 10, 5), 0, 0.5},
		{"hit rate above one clamps to one", mk(1000, 10, 20), 1000, 1},
		{"negative hit rate clamps to zero", mk(1000, 10, -5), 1000, 0},
		{"both corrupt", mk(-1, 10, 20), 0, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := FromReport(tt.rep)
			if p.TransactionBytes != tt.wantBytes {
				t.Errorf("TransactionBytes = %d, want %d", p.TransactionBytes, tt.wantBytes)
			}
			if p.GPUL1HitRate != tt.wantHit {
				t.Errorf("GPUL1HitRate = %v, want %v", p.GPUL1HitRate, tt.wantHit)
			}
			want := units.BytesPerSecond(float64(tt.wantBytes) * (1 - tt.wantHit) / kt.Seconds())
			if p.GPUDemand != want {
				t.Errorf("GPUDemand = %v, want %v", p.GPUDemand, want)
			}
			if p.GPUDemand < 0 {
				t.Errorf("GPUDemand = %v, negative demand escaped the clamp", p.GPUDemand)
			}
		})
	}
	// Zero kernel time leaves demand untouched regardless of counters.
	if p := FromReport(comm.Report{GPU: gpu.Result{TransactionBytes: 1 << 30}}); p.GPUDemand != 0 {
		t.Errorf("GPUDemand with zero kernel time = %v, want 0", p.GPUDemand)
	}
}
