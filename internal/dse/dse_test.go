package dse

import (
	"math"
	"testing"

	"igpucomm/internal/comm"
	"igpucomm/internal/cpu"
	"igpucomm/internal/devices"
	"igpucomm/internal/gpu"
	"igpucomm/internal/isa"
)

// streamingWorkload is copy-dominated: the crossover stories below hinge on
// transfer costs, exactly what the axes move. The CPU streams 1024 loads over
// the input; the kernel reads and writes each element once, coalesced.
func streamingWorkload() comm.Workload {
	const elements = 1 << 16
	return comm.Workload{
		Name: "dse-streaming",
		In:   []comm.BufferSpec{{Name: "in", Size: elements * 4}},
		Out:  []comm.BufferSpec{{Name: "out", Size: elements * 4}},
		CPUTask: func(c *cpu.CPU, lay comm.Layout) {
			base := lay.Addr("in")
			for i := int64(0); i < 1024; i++ {
				c.Load(base+i*4, 4)
				c.Work(isa.FMA, 2)
			}
		},
		MakeKernel: func(lay comm.Layout, launch int) gpu.Kernel {
			in, out := lay.Addr("in"), lay.Addr("out")
			return gpu.Kernel{Name: "dse-streaming", Threads: elements, Program: func(tid int, p *isa.Program) {
				p.Ld(in+int64(tid)*4, 4)
				p.Compute(isa.FMA, 8)
				p.St(out+int64(tid)*4, 4)
			}}
		},
		Warmup: 1,
	}
}

func TestAxisByName(t *testing.T) {
	for _, name := range []string{"io", "copy", "pinned", "dram", "io-coherence-bandwidth"} {
		if _, err := AxisByName(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := AxisByName("nvlink"); err == nil {
		t.Error("unknown axis accepted")
	}
}

func TestLinspaceAndGeomspace(t *testing.T) {
	lin := Linspace(0, 10, 6)
	if len(lin) != 6 || lin[0] != 0 || lin[5] != 10 || lin[3] != 6 {
		t.Errorf("linspace = %v", lin)
	}
	if Linspace(1, 2, 0) != nil {
		t.Error("n=0 should give nil")
	}
	if got := Linspace(5, 9, 1); len(got) != 1 || got[0] != 5 {
		t.Error("n=1 should give [lo]")
	}
	geo := Geomspace(1, 100, 3)
	if len(geo) != 3 || math.Abs(geo[1]-10) > 1e-9 || math.Abs(geo[2]-100) > 1e-9 {
		t.Errorf("geomspace = %v", geo)
	}
	if Geomspace(-1, 10, 3) != nil || Geomspace(1, 10, 0) != nil {
		t.Error("invalid geomspace inputs accepted")
	}
}

func TestSweepErrors(t *testing.T) {
	w := streamingWorkload()
	base := devices.TX2()
	if _, err := Sweep(base, Axis{}, []float64{1}, w, nil); err == nil {
		t.Error("axis without Apply accepted")
	}
	if _, err := Sweep(base, CopyBandwidth, nil, w, nil); err == nil {
		t.Error("empty values accepted")
	}
	if _, err := Sweep(base, CopyBandwidth, []float64{-5}, w, nil); err == nil {
		t.Error("invalid config value accepted")
	}
}

func TestCopyBandwidthCrossover(t *testing.T) {
	// On the coherent board, a copy-dominated streaming workload flips
	// from ZC-best (starved copy engine) to SC-best (fast copy engine)...
	// or stays ZC if copies never dominate; either way the sweep is
	// monotone: SC totals fall as the engine speeds up.
	w := streamingWorkload()
	points, err := Sweep(devices.Xavier(), CopyBandwidth, []float64{0.5, 2, 8, 32}, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].Totals["sc"] > points[i-1].Totals["sc"] {
			t.Errorf("SC total not monotone in copy bandwidth: %v -> %v",
				points[i-1].Totals["sc"], points[i].Totals["sc"])
		}
	}
	// ZC ignores the copy engine entirely.
	for i := 1; i < len(points); i++ {
		if points[i].Totals["zc"] != points[0].Totals["zc"] {
			t.Error("ZC total moved with the copy engine")
		}
	}
	// At a crawling copy engine ZC must win.
	if points[0].Best != "zc" {
		t.Errorf("best at 0.5 GB/s copy engine = %q, want zc", points[0].Best)
	}
}

func TestIOBandwidthMakesZCViable(t *testing.T) {
	// Sweep the coherence path on a TX2-like base: with a fast coherent
	// path the board behaves like Xavier and ZC wins the copy-dominated
	// workload; ZC totals fall monotonically along the axis.
	w := streamingWorkload()
	points, err := Sweep(devices.TX2(), IOBandwidth, []float64{1, 4, 16, 64}, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Totals["zc"] > points[i-1].Totals["zc"] {
			t.Errorf("ZC total not monotone in IO bandwidth: %v -> %v",
				points[i-1].Totals["zc"], points[i].Totals["zc"])
		}
	}
	if v, ok := Crossover(points, "zc"); !ok {
		t.Error("no IO bandwidth makes ZC best — expected a crossover")
	} else if v <= 0 {
		t.Errorf("crossover at %v", v)
	}
}

func TestCrossoverAbsent(t *testing.T) {
	points := []Point{{Value: 1, Best: "sc"}, {Value: 2, Best: "sc"}}
	if _, ok := Crossover(points, "zc"); ok {
		t.Error("found a crossover that does not exist")
	}
}
