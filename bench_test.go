package igpucomm

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§IV). Each iteration regenerates the corresponding artifact on
// the simulated platforms, so `go test -bench=. -benchmem` reproduces the
// entire evaluation and reports how long each experiment takes to simulate.
//
// Ablation benchmarks at the bottom isolate the design choices DESIGN.md
// calls out (I/O coherence, overlap, tiling, copy-engine speed).

import (
	"context"
	"sync"
	"testing"

	"igpucomm/internal/comm"
	"igpucomm/internal/cpu"
	"igpucomm/internal/devices"
	"igpucomm/internal/experiments"
	"igpucomm/internal/gpu"
	"igpucomm/internal/isa"
	"igpucomm/internal/microbench"
	"igpucomm/internal/soc"
	"igpucomm/internal/tiling"
	"igpucomm/internal/units"
)

var (
	benchOnce sync.Once
	benchCtx  *experiments.Context
)

// benchContext characterizes the three devices once; the per-table
// benchmarks then measure artifact regeneration on warm characterizations.
func benchContext(b *testing.B) *experiments.Context {
	b.Helper()
	benchOnce.Do(func() {
		benchCtx = experiments.NewContext(microbench.DefaultParams())
		if err := benchCtx.Prewarm(context.Background(), devices.NanoName, devices.TX2Name, devices.XavierName); err != nil {
			panic(err)
		}
	})
	return benchCtx
}

func BenchmarkTable1(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Table1(context.Background(), c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig5(context.Background(), c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig3(context.Background(), c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig6(context.Background(), c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig7(context.Background(), c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Table2(context.Background(), c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Table3(context.Background(), c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Table4(context.Background(), c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Table5(context.Background(), c); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationIOCoherence compares the MB1 ZC kernel on Xavier as-is
// versus with I/O coherence stripped (pinned traffic diverted to an uncached
// port — the mechanism the paper credits for Xavier's usable zero-copy).
func BenchmarkAblationIOCoherence(b *testing.B) {
	run := func(b *testing.B, coherent bool) {
		cfg, err := devices.ByName(devices.XavierName)
		if err != nil {
			b.Fatal(err)
		}
		if !coherent {
			cfg.Name = cfg.Name + "-nocoherence"
			cfg.IOCoherent = false
			cfg.PinnedBandwidth = 1.5 * units.GBps // TX2-class uncached path
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := soc.New(cfg)
			res, err := microbench.MB1(context.Background(), cfg.Name, microbench.TestParams(), microbench.Serial(s))
			if err != nil {
				b.Fatal(err)
			}
			row, _ := res.Row("zc")
			b.ReportMetric(row.Throughput.GB(), "zc-GB/s")
		}
	}
	b.Run("coherent", func(b *testing.B) { run(b, true) })
	b.Run("uncoherent", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationOverlap measures the third micro-benchmark's ZC total
// with and without the §III-C task overlap.
func BenchmarkAblationOverlap(b *testing.B) {
	run := func(b *testing.B, overlap bool) {
		s, err := devices.NewSoC(devices.XavierName)
		if err != nil {
			b.Fatal(err)
		}
		w := microbench.MB3WorkloadForAblation(microbench.TestParams())
		w.Overlappable = overlap
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := comm.ZC{}.Run(s, w)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(rep.Total.Seconds()*1e6, "zc-total-µs")
		}
	}
	b.Run("overlapped", func(b *testing.B) { run(b, true) })
	b.Run("serialized", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationTiling prices the §III-C pattern against a phase-
// serialized schedule using the analytic twin.
func BenchmarkAblationTiling(b *testing.B) {
	g, err := tiling.NewGeometry(512, 128, 4, 64, 64)
	if err != nil {
		b.Fatal(err)
	}
	p := tiling.Pattern{Geo: g, Phases: 8}
	for i := 0; i < b.N; i++ {
		over, serial, err := p.Estimate(tiling.Timing{CPUTile: 120, GPUTile: 100, Barrier: 500})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(serial)/float64(over), "overlap-gain-x")
	}
}

// BenchmarkAblationCopyBandwidth sweeps the copy engine to move the SC<->ZC
// crossover: with a slow engine the SH-WFS app flips to preferring ZC even
// on TX2-class hardware.
func BenchmarkAblationCopyBandwidth(b *testing.B) {
	for _, bw := range []units.BytesPerSecond{2 * units.GBps, 15 * units.GBps, 60 * units.GBps} {
		bw := bw
		b.Run(units.BytesPerSecond(bw).String(), func(b *testing.B) {
			cfg, err := devices.ByName(devices.TX2Name)
			if err != nil {
				b.Fatal(err)
			}
			cfg.Name = cfg.Name + "-copybw"
			cfg.CopyBandwidth = bw
			w, err := experiments.SHWFSWorkloadForAblation()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := soc.New(cfg)
				rep, err := comm.SC{}.Run(s, w)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.CopyTime.Seconds()*1e6, "copy-µs")
			}
		})
	}
}

// BenchmarkExtensionAsync regenerates the sc-async extension comparison.
func BenchmarkExtensionAsync(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.TableAsync(context.Background(), c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableEnergy regenerates the energy accounting artifact.
func BenchmarkTableEnergy(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.TableEnergy(context.Background(), c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableRealtime regenerates the streaming real-time analysis.
func BenchmarkTableRealtime(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.TableRealtime(context.Background(), c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationUMPageSize sweeps the UM driver's migration granularity
// and fault cost — the knobs behind the paper's ±8% UM-vs-SC band.
func BenchmarkAblationUMPageSize(b *testing.B) {
	for _, page := range []int64{4 << 10, 64 << 10, 512 << 10} {
		page := page
		b.Run(units.FormatBytes(page), func(b *testing.B) {
			cfg, err := devices.ByName(devices.TX2Name)
			if err != nil {
				b.Fatal(err)
			}
			cfg.Name = cfg.Name + "-umpage"
			cfg.PageSize = page
			w, err := experiments.SHWFSWorkloadForAblation()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := soc.New(cfg)
				rep, err := comm.UM{}.Run(s, w)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.CopyTime.Seconds()*1e6, "migration-µs")
			}
		})
	}
}

// BenchmarkAblationPhaseAccuracy compares the §III-C pattern's phase-accurate
// SoC simulation against the whole-iteration overlap approximation comm.ZC
// uses, on the same tiled producer/consumer work.
func BenchmarkAblationPhaseAccuracy(b *testing.B) {
	s, err := devices.NewSoC(devices.XavierName)
	if err != nil {
		b.Fatal(err)
	}
	buf, err := s.AllocPinned("phase-tiles", 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	geo, err := tiling.NewGeometry(2048, 128, 4, 64, 64)
	if err != nil {
		b.Fatal(err)
	}
	pattern := tiling.Pattern{Geo: geo, Phases: 4}
	work := tiling.SoCWork{
		Barrier: 1000,
		CPUTile: func(c *cpu.CPU, t tiling.Tile) {
			c.Load(buf.Addr+int64(t.Y0*geo.Width+t.X0)*4, 4)
			c.Work(isa.FMA, 6)
		},
		GPUKernel: func(phase int, tiles []tiling.Tile) gpu.Kernel {
			return gpu.Kernel{Name: "phase", Threads: len(tiles), Program: func(tid int, p *isa.Program) {
				t := tiles[tid]
				p.Ld(buf.Addr+int64(t.Y0*geo.Width+t.X0)*4, 4)
				p.Compute(isa.FMA, 4)
			}}
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total, _, err := pattern.SimulateOnSoC(s, work)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(total.Seconds()*1e6, "phase-accurate-µs")
	}
}
