package gpu

// Simulator-performance benchmarks: how fast the substrate itself simulates,
// in simulated-instructions and transactions per wall second. Useful when
// sizing experiment scales.

import (
	"runtime"
	"testing"

	"igpucomm/internal/cache"
	"igpucomm/internal/coherence"
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

// mb3Stream is an MB3-shaped kernel over threads threads: one load from
// src, a short FMA chain and one store to dst per thread.
func mb3Stream(threads int, src, dst, stride int64) Kernel {
	return Kernel{Name: "mb3-stream", Threads: threads, Stride: stride, Program: func(tid int, p *isa.Program) {
		off := int64(tid) * 4
		p.Ld(src+off, 4)
		p.Compute(isa.FMA, 4)
		p.St(dst+off, 4)
	}}
}

// BenchmarkCompilePinnedStream compiles an MB3-shaped zero-copy kernel — one
// pinned load, a short FMA chain and one cached store per thread over 1<<20
// threads, about 1.1 M transactions — into a fresh CompiledKernel each
// iteration, the way a cold characterization fills its kernel cache. It
// reports the compile cost per transaction and the bytes allocated per
// compile, which exposes any return to regrowing the stream.
func BenchmarkCompilePinnedStream(b *testing.B) {
	const threads = 1 << 20
	const src, dst = int64(0), int64(1) << 24
	g := benchGPU(b)
	g.AddPinnedRange(src, src+threads*4)
	benchCompile(b, g, mb3Stream(threads, src, dst, 0))
}

// BenchmarkCompileDeclaredStream is BenchmarkCompilePinnedStream's kernel
// declared affine (Stride 4), as MB3 declares it: the compile emits warp 0
// and derives every other warp from its template, storing references
// instead of transactions. zc keeps the pinned source; cached routes both
// buffers through the caches.
func BenchmarkCompileDeclaredStream(b *testing.B) {
	const threads = 1 << 20
	const src, dst = int64(0), int64(1) << 24
	for _, pinned := range []bool{true, false} {
		name := "cached"
		if pinned {
			name = "zc"
		}
		b.Run(name, func(b *testing.B) {
			g := benchGPU(b)
			if pinned {
				g.AddPinnedRange(src, src+threads*4)
			}
			benchCompile(b, g, mb3Stream(threads, src, dst, 4))
		})
	}
}

// benchCompile compiles k into a fresh CompiledKernel per iteration and
// reports the time per stream transaction and the bytes allocated per
// compile.
func benchCompile(b *testing.B, g *GPU, k Kernel) {
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

// BenchmarkReplayDeclaredStream replays BenchmarkCompileDeclaredStream's
// kernel at 1<<18 threads, compiled once, through the caches each
// iteration: the per-launch cost of a cached declared kernel, whose derived
// warps are expanded from the warp template as the stream is walked. zc
// pins the source on an uncached port, io pins it on an I/O-coherence port
// into a 2 MiB CPU LLC over DRAM, and cached routes both buffers through
// the GPU caches.
func BenchmarkReplayDeclaredStream(b *testing.B) {
	const threads = 1 << 18
	const src, dst = int64(0), int64(1) << 24
	for _, route := range []string{"zc", "io", "cached"} {
		b.Run(route, func(b *testing.B) {
			g := benchGPU(b)
			switch route {
			case "io":
				d := memdev.New(memdev.Config{Name: "dram", Latency: 200, Bandwidth: 25 * units.GBps})
				llc := cache.New(cache.Config{Name: "cpuLLC", Size: 2 * units.MiB, LineSize: 64, Ways: 16, HitLatency: 30}, d.NewPort("cpu"))
				g.SetPinnedPath(coherence.NewIOPort("io", llc, 20), 32*units.GBps)
				fallthrough
			case "zc":
				g.AddPinnedRange(src, src+threads*4)
			}
			ck, err := g.Compile(mb3Stream(threads, src, dst, 4))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := g.LaunchCompiled(ck); err != nil { // warm the replay scratch
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.LaunchCompiled(ck); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*ck.Transactions()), "ns/txn")
		})
	}
}
