package gpu

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"igpucomm/internal/cache"
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
		{"A's next run replays its first compile", a, 8192, 0},
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

// TestKernelCacheKeepsFirstCompiles pins that a key's first compile is
// the entry every later run replays: on its compiling GPU once a new run
// restores the same routing, and on another GPU sharing the cache within
// that GPU's first run. Only the first launch compiles, and the cache
// holds one entry per key.
func TestKernelCacheKeepsFirstCompiles(t *testing.T) {
	c := NewKernelCache(testConfig(), 2)
	a, b := sharedGPU(c), sharedGPU(c)
	kernels := []Kernel{affineKernel(0), affineKernel(pinnedBase)}
	for run := 0; run < 3; run++ {
		for _, g := range []*GPU{a, b} {
			newRun(8192, g)
			l := NewLauncher(g, "keep")
			for idx, k := range kernels {
				if _, err := l.Launch(idx, k); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if got := a.Work().KernelsCompiled + b.Work().KernelsCompiled; got != 2 {
		t.Fatalf("%d compiles, want 2: each key's first launch", got)
	}
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 0 {
		t.Fatalf("cache stats %+v, want two entries and no evictions", st)
	}
}

// TestDeclaredKernelRetainsTemplate pins that a declared MB3-shaped
// kernel's cache entry holds its warp template, not its derived warps: at
// 2^16 and 2^20 threads, with the source pinned or cached, the entry's
// accounted bytes and the transactions its compile records are the same,
// while the stream it replays grows sixteenfold, and the entry is a small
// fraction of that stream written out. The kernel-cache budget therefore
// accounts what a declared entry actually holds.
func TestDeclaredKernelRetainsTemplate(t *testing.T) {
	const src, dst = int64(0), int64(1) << 24
	for _, pinned := range []bool{true, false} {
		g, _ := testGPU(t)
		if pinned {
			g.AddPinnedRange(src, src+(1<<20)*4)
		}
		l := NewLauncher(g, "template")
		var bytes, recorded, txns [2]int64
		for i, threads := range []int{1 << 16, 1 << 20} {
			before := g.Work()
			e, err := g.lookupKernel(l, i, mb3Stream(threads, src, dst, 4))
			if err != nil {
				t.Fatal(err)
			}
			w := g.Work()
			if derived := w.WarpsDerived - before.WarpsDerived; derived != int64(threads/32-1) {
				t.Fatalf("pinned=%v threads=%d: %d warps derived, want every warp but warp 0", pinned, threads, derived)
			}
			bytes[i], recorded[i], txns[i] = e.bytes(), w.TxnsRecorded-before.TxnsRecorded, e.ck.Transactions()
		}
		if bytes[0] != bytes[1] || recorded[0] != recorded[1] {
			t.Fatalf("pinned=%v: entry bytes %v and recorded transactions %v vary with the thread count", pinned, bytes, recorded)
		}
		if txns[1] != 16*txns[0] {
			t.Fatalf("pinned=%v: streams of %v transactions, want the larger 16 times the smaller", pinned, txns)
		}
		if written := txns[1] * int64(unsafe.Sizeof(cache.Access{})); 1000*bytes[1] > written {
			t.Fatalf("pinned=%v: entry holds %d bytes, over a thousandth of the %d its %d transactions take written out", pinned, bytes[1], written, txns[1])
		}
	}
}
