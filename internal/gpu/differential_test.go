package gpu

// Differential harness for the batch-kernel executor: the compiled path
// (compile once, replay through cache.DoBatch) must be byte-identical to the
// per-access reference executor for EVERY expressible kernel, and its steady
// state must not allocate. The fuzzer generates kernels from raw bytes —
// mixed strides, sizes, pinned and cached lanes, masked slots, partial
// warps — and fails on the first observable divergence.

import (
	"testing"

	"igpucomm/internal/isa"
	"igpucomm/internal/memdev"
	"igpucomm/internal/units"
)

// pinnedBase is where the fuzz harness maps its pinned window; far above the
// cacheable working set so the two never alias.
const pinnedBase = int64(1) << 20

// twinGPUs builds two identically configured GPUs over separate DRAMs, the
// first forced onto the per-access reference path.
func twinGPUs() (ref, batch *GPU) {
	build := func() *GPU {
		d := memdev.New(memdev.Config{Name: "dram", Latency: 200, Bandwidth: 25 * units.GBps})
		g := New(testConfig(), d.NewPort("gpu-dram", -1))
		g.SetPinnedPath(d.NewUncachedPort("pinned", 600), 2*units.GBps)
		g.AddPinnedRange(pinnedBase, pinnedBase+8192)
		return g
	}
	ref = build()
	ref.SetReferenceMode(true)
	return ref, build()
}

// fuzzKernel decodes the fuzz payload into a kernel: each 4-byte group is
// one slot shared by every thread (SIMT), with per-thread addresses. Byte 0
// picks the slot kind (compute run, load, store, masked load, lane-0-masked
// access), byte 1 the base region (cacheable or pinned), byte 2 the
// per-thread stride, byte 3 the access size — and, for a lane-0-masked
// slot, whether even lanes store while odd lanes load, a divergence both
// executors must reject with the same error. Returns at most 48 slots so
// fuzzing stays fast.
func fuzzKernel(data []byte, threads int) Kernel {
	slots := len(data) / 4
	if slots > 48 {
		slots = 48
	}
	return Kernel{
		Name:    "fuzz",
		Threads: threads,
		Program: func(tid int, p *isa.Program) {
			for s := 0; s < slots; s++ {
				b0, b1, b2, b3 := data[4*s], data[4*s+1], data[4*s+2], data[4*s+3]
				base := int64(b1%64) * 128
				if b1 >= 192 {
					base = pinnedBase + int64(b1%32)*64
				}
				stride := int64(b2 % 9 * 8)
				size := int64(b3%32) + 1
				addr := base + int64(tid)*stride
				switch b0 % 5 {
				case 0:
					p.Compute(isa.FMA, int(b2%5)+1)
				case 1:
					p.Ld(addr, size)
				case 2:
					p.St(addr, size)
				case 3:
					// Masked slot: odd lanes sit this one out (predication).
					if tid%2 == 1 {
						p.PadTo(p.Len() + 1)
					} else {
						p.Ld(addr, size)
					}
				case 4:
					// Lane 0 sits this one out; the slot's opcode comes
					// from the first active lane.
					switch {
					case tid%32 == 0:
						p.PadTo(p.Len() + 1)
					case b3 >= 128 && tid%2 == 0:
						p.St(addr, size)
					default:
						p.Ld(addr, size)
					}
				}
			}
		},
	}
}

// FuzzBatchVsReference is the batch-vs-reference differential fuzzer: any
// decodable kernel must produce an identical Result — times, hit/miss
// deltas, transaction (coalescing) counts, bytes — from the compiled batch
// path and the per-access reference path, and the identical error when it
// is invalid.
func FuzzBatchVsReference(f *testing.F) {
	f.Add([]byte{1, 0, 1, 3, 0, 0, 0, 0, 2, 10, 2, 7}, uint8(64))
	f.Add([]byte{1, 200, 0, 3, 2, 220, 1, 7}, uint8(33))  // pinned read + WC write
	f.Add([]byte{3, 8, 4, 15, 1, 8, 4, 15}, uint8(90))    // masked + partial warp
	f.Add([]byte{2, 63, 8, 31, 1, 63, 8, 31}, uint8(255)) // wide strides, many warps
	f.Add([]byte{4, 0, 1, 131}, uint8(31))                // 32 threads: lane 0 masked, odd lanes load, even lanes store
	f.Fuzz(func(t *testing.T, data []byte, nthreads uint8) {
		threads := int(nthreads)%128 + 1
		ref, batch := twinGPUs()
		k := fuzzKernel(data, threads)

		want, errRef := ref.Launch(k)
		got, errBatch := batch.Launch(k)
		if (errRef == nil) != (errBatch == nil) {
			t.Fatalf("error divergence: reference %v, batch %v", errRef, errBatch)
		}
		if errRef != nil {
			if errRef.Error() != errBatch.Error() {
				t.Fatalf("error text divergence:\nreference: %v\nbatch:     %v", errRef, errBatch)
			}
			return
		}
		if got != want {
			t.Fatalf("result divergence:\nreference: %+v\nbatch:     %+v", want, got)
		}
		// The caches must also end in the same state, not just report the
		// same deltas — replay a second time and compare again (warm-cache
		// behaviour diverges if residency differs).
		want2, _ := ref.Launch(k)
		got2, _ := batch.Launch(k)
		if got2 != want2 {
			t.Fatalf("warm-cache divergence:\nreference: %+v\nbatch:     %+v", want2, got2)
		}
	})
}

// TestBatchVsReferenceSeeds runs the fuzz seed corpus as a plain test so the
// differential contract is exercised on every `go test`, not only under
// -fuzz.
func TestBatchVsReferenceSeeds(t *testing.T) {
	seeds := []struct {
		data    []byte
		threads int
	}{
		{[]byte{1, 0, 1, 3, 0, 0, 0, 0, 2, 10, 2, 7}, 64},
		{[]byte{1, 200, 0, 3, 2, 220, 1, 7}, 33},
		{[]byte{3, 8, 4, 15, 1, 8, 4, 15}, 90},
		{[]byte{2, 63, 8, 31, 1, 63, 8, 31}, 255},
		{[]byte{1, 5, 0, 0}, 1},
		{[]byte{4, 0, 1, 131}, 32},
	}
	for i, s := range seeds {
		ref, batch := twinGPUs()
		k := fuzzKernel(s.data, s.threads)
		want, errRef := ref.Launch(k)
		got, errBatch := batch.Launch(k)
		if (errRef == nil) != (errBatch == nil) || (errRef != nil && errRef.Error() != errBatch.Error()) {
			t.Fatalf("seed %d: error divergence: %v vs %v", i, errRef, errBatch)
		}
		if got != want {
			t.Fatalf("seed %d: result divergence:\nreference: %+v\nbatch:     %+v", i, want, got)
		}
	}
}

// TestLaunchSteadyStateZeroAlloc is the allocation gate on the simulate hot
// path: once warm, a compiled Launch — emission, compile walk, coalescing,
// batch cache replay — must not allocate at all.
func TestLaunchSteadyStateZeroAlloc(t *testing.T) {
	_, g := twinGPUs()
	k := fuzzKernel([]byte{1, 0, 1, 3, 0, 0, 0, 0, 2, 10, 2, 7, 1, 200, 0, 3}, 128)
	for i := 0; i < 3; i++ { // warm scratch to steady-state capacity
		if _, err := g.Launch(k); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := g.Launch(k); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Launch allocates %v times per run, want 0", allocs)
	}
}

// TestLauncherSteadyStateZeroAlloc extends the gate to the cached-replay
// path model runs actually use: a warm Launcher.Launch validates the cache
// entry and replays without allocating.
func TestLauncherSteadyStateZeroAlloc(t *testing.T) {
	_, g := twinGPUs()
	lch := NewLauncher(g, "alloc-test/fuzz")
	k := fuzzKernel([]byte{1, 0, 1, 3, 2, 10, 2, 7}, 128)
	for i := 0; i < 3; i++ {
		if _, err := lch.Launch(0, k); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := lch.Launch(0, k); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Launcher.Launch allocates %v times per run, want 0", allocs)
	}
}

// TestLauncherCrossRunReplay pins the cross-run reuse protocol: after a
// pinned-routing reset that rebuilds identical content (what soc.ResetState
// does between model runs), the second compile of a key records the program
// fingerprint, and from the third run on the launcher replays — validated by
// hash — instead of recompiling.
func TestLauncherCrossRunReplay(t *testing.T) {
	_, g := twinGPUs()
	lch := NewLauncher(g, "xrun/fuzz")
	k := fuzzKernel([]byte{1, 0, 1, 3, 2, 10, 2, 7}, 64)

	newRun := func() {
		// Rebuild the same pinned routing; the epoch moves, content doesn't.
		g.ClearPinnedRanges()
		g.AddPinnedRange(pinnedBase, pinnedBase+8192)
	}
	want, err := lch.Launch(0, k)
	if err != nil {
		t.Fatal(err)
	}
	e := g.kcache[kernelKey{scope: "xrun/fuzz", idx: 0}]
	if e == nil {
		t.Fatal("no cache entry after first launch")
	}
	if e.hashed {
		t.Fatal("first compile hashed eagerly; hashing must be deferred to reuse")
	}
	newRun()
	if _, err := lch.Launch(0, k); err != nil {
		t.Fatal(err)
	}
	if !e.hashed {
		t.Fatal("second compile did not record the program fingerprint")
	}
	epochAfterSecond := e.ck.epoch
	newRun()
	got, err := lch.Launch(0, k)
	if err != nil {
		t.Fatal(err)
	}
	if e.ck.epoch == epochAfterSecond {
		t.Fatal("third launch did not revalidate against the new epoch")
	}
	if got.Transactions != want.Transactions || got.Instructions != want.Instructions {
		t.Fatalf("cross-run replay diverged: %+v vs %+v", got, want)
	}

	// A changed pinned layout must force recompilation, not replay.
	g.ClearPinnedRanges()
	g.AddPinnedRange(pinnedBase, pinnedBase+4096)
	if _, err := lch.Launch(0, k); err != nil {
		t.Fatal(err)
	}
	if e.path == nil {
		t.Fatal("entry lost its routing evidence after recompile")
	}
	if got := len(e.ranges); got != 1 || e.ranges[0].hi != pinnedBase+4096 {
		t.Fatalf("entry not recompiled against new routing: ranges %+v", e.ranges)
	}
}

// TestLauncherBypassesMatchLaunch pins the launcher's bypass rules: negative
// launch indices and reference mode take the uncached paths with identical
// results.
func TestLauncherBypassesMatchLaunch(t *testing.T) {
	ref, g := twinGPUs()
	k := fuzzKernel([]byte{1, 0, 1, 3}, 64)
	lch := NewLauncher(g, "bypass/fuzz")
	want, err := ref.Launch(k) // reference path
	if err != nil {
		t.Fatal(err)
	}
	got, err := lch.Launch(-1, k)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("negative-index launch diverged from reference: %+v vs %+v", got, want)
	}
	g.SetReferenceMode(true)
	got, err = lch.Launch(0, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.kcache) != 0 {
		t.Fatal("reference mode populated the kernel cache")
	}
	g.SetReferenceMode(false)
	if got.Transactions != want.Transactions {
		t.Fatalf("reference-mode launcher diverged: %+v vs %+v", got, want)
	}
	if _, err := lch.Launch(0, Kernel{Name: "bad", Threads: 0, Program: func(int, *isa.Program) {}}); err == nil {
		t.Fatal("launcher accepted zero threads")
	}
	if _, err := lch.Launch(0, Kernel{Name: "nil", Threads: 4}); err == nil {
		t.Fatal("launcher accepted nil program")
	}
}

// TestKernelCacheEviction bounds the GPU-resident kernel cache: pushing many
// distinct large kernels through one GPU must evict oldest entries rather
// than grow past the byte budget.
func TestKernelCacheEviction(t *testing.T) {
	_, g := twinGPUs()
	// Large streaming kernels so each entry carries real transaction weight.
	mk := func(i int) Kernel {
		base := int64(i) * 4096
		return Kernel{Name: "big", Threads: 256, Program: func(tid int, p *isa.Program) {
			for j := 0; j < 64; j++ {
				p.Ld(base+int64(tid)*64+int64(j)*16384, 4)
			}
		}}
	}
	lch := NewLauncher(g, "evict/fuzz")
	for i := 0; i < 2000; i++ {
		if _, err := lch.Launch(i, mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	if g.kcacheBytes > kernelCacheBudget {
		t.Fatalf("kernel cache %d bytes exceeds budget %d", g.kcacheBytes, kernelCacheBudget)
	}
	if len(g.kcache) >= 2000 {
		t.Fatalf("no eviction happened: %d entries resident", len(g.kcache))
	}
	if len(g.kcache) != len(g.kcacheOrder) {
		t.Fatalf("cache map (%d) and order list (%d) out of sync", len(g.kcache), len(g.kcacheOrder))
	}
}
