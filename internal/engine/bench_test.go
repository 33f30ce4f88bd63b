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
			for _, cur := range []string{"sc", "um", "zc"} {
				reqs = append(reqs, Request{Device: mustDevice(b, cfg, p), App: app, Scale: catalog.Quick, Current: cur})
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
			char, err := framework.Characterize(context.Background(), soc.New(req.Device.Config()), p)
			if err != nil {
				b.Fatal(err)
			}
			w, err := catalog.ByName(req.App, req.Scale)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := framework.AdviseWorkload(context.Background(), char, soc.New(req.Device.Config()), w, req.Current); err != nil {
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
// a cold request). Cold rebuilds the engine every iteration; warm seeds a
// fresh engine each iteration with the primed engine's three device
// characterizations (CacheExport into CachePut), so characterizations hit
// and only profiling remains — the advice memo starts empty.

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
	primed := New(Options{})
	if _, err := adviseBatch(context.Background(), primed, reqs); err != nil {
		b.Fatal(err)
	}
	chars := primed.CacheExport()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(Options{})
		for key, char := range chars {
			e.CachePut(key, char)
		}
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

// BenchmarkAdviseWarmHit is the warm read path a serving advisord takes
// for every repeated question: one Advise on a resolved Device that the
// advice memo already answers, so it measures the memo lookup alone.
func BenchmarkAdviseWarmHit(b *testing.B) {
	e := New(Options{})
	req := Request{Device: mustDevice(b, devices.TX2(), microbench.TestParams()), App: "shwfs", Scale: catalog.Micro, Current: "sc"}
	ctx := context.Background()
	if _, err := e.Advise(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Advise(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}
