package gpu

// Simulator-performance benchmarks: how fast the substrate itself simulates,
// in simulated-instructions and transactions per wall second. Useful when
// sizing experiment scales.

import (
	"runtime"
	"testing"

	"igpucomm/internal/isa"
	"igpucomm/internal/memdev"
	"igpucomm/internal/units"
)

func benchGPU(b *testing.B) *GPU {
	b.Helper()
	d := memdev.New(memdev.Config{Name: "dram", Latency: 200, Bandwidth: 25 * units.GBps})
	g := New(testConfig(), d.NewPort("p"))
	g.SetPinnedPath(d.NewUncachedPortRW("pinned", 600, 60), 2*units.GBps)
	return g
}

func BenchmarkLaunchComputeKernel(b *testing.B) {
	g := benchGPU(b)
	k := Kernel{Name: "compute", Threads: 4096, Program: func(tid int, p *isa.Program) {
		p.Compute(isa.FMA, 64)
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Launch(k); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(4096*64), "sim-instrs/op")
}

func BenchmarkLaunchStreamingKernel(b *testing.B) {
	g := benchGPU(b)
	k := Kernel{Name: "stream", Threads: 4096, Program: func(tid int, p *isa.Program) {
		p.Ld(int64(tid)*4, 4)
		p.Compute(isa.FMA, 8)
		p.St(1<<22+int64(tid)*4, 4)
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Launch(k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLaunchPinnedKernel(b *testing.B) {
	g := benchGPU(b)
	g.AddPinnedRange(0, 1<<24)
	k := Kernel{Name: "pinned", Threads: 4096, Program: func(tid int, p *isa.Program) {
		p.Ld(int64(tid)*4, 4)
		p.St(1<<22+int64(tid)*4, 4)
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Launch(k); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompilePinnedStream compiles an MB3-shaped zero-copy kernel — one
// pinned load, a short FMA chain and one cached store per thread over 1<<20
// threads, about 1.1 M transactions — into a fresh CompiledKernel each
// iteration, the way a cold characterization fills its kernel cache. It
// reports the compile cost per recorded transaction and the bytes allocated
// per compile, which exposes any return to regrowing the stream.
func BenchmarkCompilePinnedStream(b *testing.B) {
	const threads = 1 << 20
	const src, dst = int64(0), int64(1) << 24
	g := benchGPU(b)
	g.AddPinnedRange(src, src+threads*4)
	k := Kernel{Name: "mb3-stream", Threads: threads, Program: func(tid int, p *isa.Program) {
		off := int64(tid) * 4
		p.Ld(src+off, 4)
		p.Compute(isa.FMA, 4)
		p.St(dst+off, 4)
	}}
	if _, err := g.Compile(k); err != nil { // warm the compile scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	var txns int64
	for i := 0; i < b.N; i++ {
		ck, err := g.Compile(k)
		if err != nil {
			b.Fatal(err)
		}
		txns += ck.Transactions()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(txns), "ns/txn")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N), "B/op")
}
