package engine

import (
	"context"
	"testing"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/framework"
	"igpucomm/internal/microbench"
	"igpucomm/internal/soc"
)

// The sweep benchmarks answer the PR's headline question: how much faster is
// the engine than the serial seed path on the full 3-device x 3-app x
// 3-current-model advisory sweep (27 requests)? The serial path characterizes
// per request (27 simulations); the engine's memo cache collapses that to one
// characterization per device (3), sharing each across the 9 requests that
// need it. Run with -benchtime=1x: one iteration is the whole sweep.

// sweepRequests builds the 27-point sweep.
func sweepRequests(b *testing.B, p microbench.Params) []Request {
	b.Helper()
	var reqs []Request
	for _, cfg := range devices.All() {
		for _, app := range catalog.Names() {
			w, err := catalog.ByName(app, catalog.Quick)
			if err != nil {
				b.Fatal(err)
			}
			for _, cur := range []string{"sc", "um", "zc"} {
				reqs = append(reqs, Request{Config: cfg, Params: p, Workload: w, Current: cur})
			}
		}
	}
	return reqs
}

func BenchmarkSweepSerial(b *testing.B) {
	p := microbench.TestParams()
	reqs := sweepRequests(b, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, req := range reqs {
			char, err := framework.Characterize(context.Background(), soc.New(req.Config), req.Params)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := framework.AdviseWorkload(context.Background(), char, soc.New(req.Config), req.Workload, req.Current); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSweepEngine(b *testing.B) {
	p := microbench.TestParams()
	reqs := sweepRequests(b, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(Options{}) // cold cache every iteration
		if _, err := adviseBatch(context.Background(), e, reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// The cold/warm pair isolates what the cache is worth under the paper's real
// micro-benchmark scale (DefaultParams — the characterization that dominates
// a cold request). Cold rebuilds the engine every iteration; warm reuses one
// whose cache already holds all three devices, so only profiling remains.

func BenchmarkAdviseBatchCold(b *testing.B) {
	p := microbench.DefaultParams()
	reqs := sweepRequests(b, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(Options{})
		if _, err := adviseBatch(context.Background(), e, reqs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdviseBatchWarm(b *testing.B) {
	p := microbench.DefaultParams()
	reqs := sweepRequests(b, p)
	e := New(Options{})
	if _, err := adviseBatch(context.Background(), e, reqs); err != nil { // prime the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adviseBatch(context.Background(), e, reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharacterizeSerial/Engine compare one device characterization at
// the paper's scale: the engine fans the micro-benchmark sweep points out
// across clones, so this isolates raw parallelism (on multi-core hosts) from
// the memoization the sweep benchmarks measure.

func BenchmarkCharacterizeSerial(b *testing.B) {
	cfg, err := devices.ByName(devices.TX2Name)
	if err != nil {
		b.Fatal(err)
	}
	p := microbench.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := framework.Characterize(context.Background(), soc.New(cfg), p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCharacterizeEngine(b *testing.B) {
	cfg, err := devices.ByName(devices.TX2Name)
	if err != nil {
		b.Fatal(err)
	}
	p := microbench.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(Options{})
		if _, err := e.Characterize(context.Background(), cfg, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreEngine measures the parallel brute-force ranking of all
// five models against the serial seed path.

func BenchmarkExploreSerial(b *testing.B) {
	cfg, err := devices.ByName(devices.TX2Name)
	if err != nil {
		b.Fatal(err)
	}
	w, err := catalog.ByName("shwfs", catalog.Quick)
	if err != nil {
		b.Fatal(err)
	}
	models := comm.AllModels()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := framework.Explore(soc.New(cfg), w, models); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExploreEngine(b *testing.B) {
	cfg, err := devices.ByName(devices.TX2Name)
	if err != nil {
		b.Fatal(err)
	}
	w, err := catalog.ByName("shwfs", catalog.Quick)
	if err != nil {
		b.Fatal(err)
	}
	models := comm.AllModels()
	e := New(Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Explore(context.Background(), cfg, w, models); err != nil {
			b.Fatal(err)
		}
	}
}
