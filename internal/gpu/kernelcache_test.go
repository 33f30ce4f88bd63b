package gpu

import (
	"fmt"
	"sync"
	"testing"

	"igpucomm/internal/isa"
)

// sharedGPU returns a compiled-mode GPU attached to c, wired like twinGPUs'.
func sharedGPU(c *KernelCache) *GPU {
	_, g := twinGPUs()
	g.SetKernelCache(c)
	return g
}

// affineKernel is a declared affine kernel over a buffer at base: one load,
// a compute run and one store per thread.
func affineKernel(base int64) Kernel {
	return Kernel{Name: "affine", Threads: 256, Stride: 4, Program: func(tid int, p *isa.Program) {
		p.Ld(base+int64(tid)*4, 4)
		p.Compute(isa.FMA, 3)
		p.St(base+4096+int64(tid)*4, 4)
	}}
}

// newRun rebuilds each GPU's pinned routing as [pinnedBase, pinnedBase+size),
// moving the pinned epoch the way soc.ResetState does between model runs.
func newRun(size int64, gs ...*GPU) {
	for _, g := range gs {
		g.ClearPinnedRanges()
		g.AddPinnedRange(pinnedBase, pinnedBase+size)
	}
}

// TestSharedKernelCacheConcurrent runs four GPUs of one config on one
// KernelCache from four goroutines. Each launches the same scopes across
// pinned-epoch bumps, switching between two pinned layouts at different
// runs, so the GPUs replay, replace and revalidate each other's entries
// while others replay them. Every Result must be byte-identical to the same
// launch on a GPU with a private cache.
func TestSharedKernelCacheConcurrent(t *testing.T) {
	kernels := []Kernel{
		fuzzKernel([]byte{1, 0, 1, 3, 2, 10, 2, 7}, 128),
		fuzzKernel([]byte{2, 1, 4, 2, 0, 0, 0, 5, 1, 0, 3, 3}, 96),
		affineKernel(pinnedBase),
	}
	sizes := []int64{8192, 4096}
	c := NewKernelCache(testConfig(), 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shared := sharedGPU(c)
			_, private := twinGPUs()
			for run := 0; run < 12; run++ {
				newRun(sizes[(run/3+i)%2], shared, private)
				for _, scope := range []string{"a", "b"} {
					ls, lp := NewLauncher(shared, scope), NewLauncher(private, scope)
					for iter := 0; iter < 2; iter++ {
						for idx, k := range kernels {
							where := fmt.Sprintf("gpu %d run %d scope %s iteration %d launch %d", i, run, scope, iter, idx)
							got, err := ls.Launch(idx, k)
							if err != nil {
								t.Errorf("%s: shared: %v", where, err)
								return
							}
							want, err := lp.Launch(idx, k)
							if err != nil {
								t.Errorf("%s: private: %v", where, err)
								return
							}
							if got != want {
								t.Errorf("%s: shared cache %+v, private cache %+v", where, got, want)
								return
							}
						}
					}
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestSharedKernelCacheRerouted pins per-GPU validation on a shared cache:
// pinned routing changed on one GPU recompiles the key for that GPU and
// replaces the shared entry, while another GPU, still in the run in which
// it validated the old entry, keeps replaying that entry with results
// identical to a private cache. In its next run the other GPU finds the
// rerouted entry, whose ranges differ from its own, and recompiles.
func TestSharedKernelCacheRerouted(t *testing.T) {
	c := NewKernelCache(testConfig(), 2)
	a, b := sharedGPU(c), sharedGPU(c)
	_, pa := twinGPUs()
	_, pb := twinGPUs()
	la, lb := NewLauncher(a, "rerouted"), NewLauncher(b, "rerouted")
	lpa, lpb := NewLauncher(pa, "rerouted"), NewLauncher(pb, "rerouted")
	key := kernelKey{scope: "rerouted", idx: 0}
	// The kernel loads from the first 1 KiB of the pinned range and stores
	// 4 KiB further on, so a 4 KiB range pins only its loads.
	k := affineKernel(pinnedBase)
	// launch runs k on g and on its private twin, requires identical
	// results and returns the kernels g compiled.
	launch := func(step string, g *GPU, l, twin *Launcher) int64 {
		t.Helper()
		before := g.Work().KernelsCompiled
		got, err := l.Launch(0, k)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		want, err := twin.Launch(0, k)
		if err != nil {
			t.Fatalf("%s: private: %v", step, err)
		}
		if got != want {
			t.Fatalf("%s: shared cache %+v, private cache %+v", step, got, want)
		}
		return g.Work().KernelsCompiled - before
	}
	steps := []struct {
		name     string
		g        *GPU
		pinned   int64 // the new run's pinned range size; 0 stays in the run
		compiles int64
	}{
		{"A compiles", a, 8192, 1},
		{"A recompiles, marking the key recurring", a, 8192, 1},
		{"B replays A's entry", b, 8192, 0},
		{"A reroutes and recompiles", a, 4096, 1},
		{"B keeps replaying the entry it validated", b, 0, 0},
		{"B's next run recompiles", b, 8192, 1},
		{"A's next run recompiles", a, 4096, 1},
		{"B, again in its run, keeps replaying", b, 0, 0},
	}
	for _, st := range steps {
		l, twin, pg := la, lpa, pa
		if st.g == b {
			l, twin, pg = lb, lpb, pb
		}
		if st.pinned > 0 {
			newRun(st.pinned, st.g, pg)
		}
		if got := launch(st.name, st.g, l, twin); got != st.compiles {
			t.Fatalf("%s: %d kernels compiled, want %d", st.name, got, st.compiles)
		}
		if st.compiles > 0 && c.entries[key] != st.g.validated[key] {
			t.Fatalf("%s: the recompile did not replace the shared entry", st.name)
		}
	}
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("cache stats %+v, want one entry and no evictions", st)
	}
}

// TestSetKernelCacheRejectsOtherConfig checks that a GPU attaches only to a
// cache made for an equal Config: an equal config built separately is
// accepted, a renamed or retuned one panics.
func TestSetKernelCacheRejectsOtherConfig(t *testing.T) {
	_, g := twinGPUs()
	g.SetKernelCache(NewKernelCache(testConfig(), 2))
	mutations := map[string]func(*Config){
		"renamed":      func(c *Config) { c.Name = "other" },
		"more SMs":     func(c *Config) { c.SMs++ },
		"costlier FMA": func(c *Config) { c.Costs.Issue[isa.FMA]++ },
	}
	for name, mutate := range mutations {
		cfg := testConfig()
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: attaching to another config's cache did not panic", name)
				}
			}()
			g.SetKernelCache(NewKernelCache(cfg, 2))
		}()
	}
}

// TestKernelCacheDemotesFirstCompiles pins what the cache keeps of a key's
// first compile: the full entry while its run lasts, and only a marker once
// the compiling GPU moves to a new run, so a kernel that never recurs does
// not hold its stream in the cache. The marker keeps the key known, so the
// next compile marks the key recurring and its entry stays replayable.
func TestKernelCacheDemotesFirstCompiles(t *testing.T) {
	_, g := twinGPUs()
	c := g.KernelCache()
	lch := NewLauncher(g, "demote")
	k, other := affineKernel(0), affineKernel(pinnedBase)
	key := kernelKey{scope: "demote", idx: 0}
	launch := func(idx int, k Kernel) {
		t.Helper()
		if _, err := lch.Launch(idx, k); err != nil {
			t.Fatal(err)
		}
	}
	launch(0, k)
	first := c.entries[key]
	if first.threads != k.Threads || first.repeat {
		t.Fatalf("first compile published %+v, want the first compile", first)
	}
	newRun(8192, g)
	launch(1, other)
	if e := c.entries[key]; e == first || e.threads != 0 || e.ck.Transactions() != 0 {
		t.Fatalf("first compile not demoted to a marker once its run ended: %+v", e)
	}
	if want := (&cachedKernel{}).bytes() + g.validated[kernelKey{scope: "demote", idx: 1}].bytes(); c.Stats().Bytes != want {
		t.Fatalf("cache accounts %d bytes, want %d: a marker plus one full entry", c.Stats().Bytes, want)
	}
	before := g.Work().KernelsCompiled
	launch(0, k)
	if e := c.entries[key]; !e.repeat || e.threads != k.Threads {
		t.Fatalf("second compile published %+v, want the recurring kernel", e)
	}
	newRun(8192, g)
	launch(0, k)
	launch(1, other)
	if got := g.Work().KernelsCompiled - before; got != 2 {
		t.Fatalf("%d compiles, want 2: key 0's second compile, then key 1's", got)
	}
	if e := c.entries[key]; !e.repeat || e.threads != k.Threads {
		t.Fatalf("recurring entry demoted: %+v", e)
	}
}
