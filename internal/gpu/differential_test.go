package gpu

// Differential harness for the batch-kernel executor: the compiled path
// (compile once, replay through cache.DoBatch) must be byte-identical to the
// per-access reference executor for EVERY expressible kernel, and its steady
// state must not allocate. The fuzzer generates kernels from raw bytes —
// mixed strides, sizes, pinned and cached lanes, masked slots, partial
// warps — and fails on the first observable divergence. A decoded kernel
// whose memory slots all share one per-thread stride is declared affine, so
// the warp-template compile path is fuzzed against the same oracle.

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
		g := New(testConfig(), d.NewPort("gpu-dram"))
		g.SetPinnedPath(d.NewUncachedPortRW("pinned", 600, 60), 2*units.GBps)
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
// per-thread stride (see fuzzStride), byte 3 the access size — and, for a
// lane-0-masked slot, whether even lanes store while odd lanes load, a
// divergence both executors must reject with the same error. Returns at
// most 48 slots so fuzzing stays fast. The kernel declares its stride when
// every memory slot is an unmasked load or store with one shared nonzero
// stride; the reference executor ignores the declaration.
func fuzzKernel(data []byte, threads int) Kernel {
	slots := len(data) / 4
	if slots > 48 {
		slots = 48
	}
	var declared int64
	for s := 0; s < slots; s++ {
		kind, stride := data[4*s]%5, fuzzStride(data[4*s+2])
		if kind == 0 {
			continue
		}
		if kind > 2 || stride == 0 || (declared != 0 && stride != declared) {
			declared = 0
			break
		}
		declared = stride
	}
	return Kernel{
		Name:    "fuzz",
		Threads: threads,
		Stride:  declared,
		Program: func(tid int, p *isa.Program) {
			for s := 0; s < slots; s++ {
				b0, b1, b2, b3 := data[4*s], data[4*s+1], data[4*s+2], data[4*s+3]
				base := int64(b1%64) * 128
				if b1 >= 192 {
					base = pinnedBase + int64(b1%32)*64
				}
				stride := fuzzStride(b2)
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

// fuzzStride decodes a memory slot's per-thread stride byte: a multiple
// of 8 up to 64 bytes, or, for the top bytes 248..255, 1 to 8 bytes — odd
// strides give warp spans that are not a multiple of the line size.
func fuzzStride(b byte) int64 {
	if b >= 248 {
		return int64(b - 247)
	}
	return int64(b % 9 * 8)
}

// declaredSeeds are seeds whose kernels declare a stride, each aimed at one
// of the warp-template path's fallbacks; derived is how many warps the
// declared compile derives from warp 0.
var declaredSeeds = []struct {
	data    []byte
	threads int
	derived int64
}{
	{[]byte{1, 0, 1, 3, 0, 0, 0, 0, 2, 10, 1, 7}, 90, 1},        // partial last warp 2 compiles the normal way
	{[]byte{1, 200, 8, 3, 2, 200, 8, 3}, 128, 2},                // warp 3 straddles the pinned window's end
	{[]byte{1, 0, 250, 3, 2, 10, 250, 7, 1, 0, 250, 9}, 100, 0}, // stride 3: warp span 96 B, not a line multiple
	{[]byte{1, 0, 249, 5, 2, 40, 249, 2}, 128, 3},               // stride 2: warp span of exactly one line
}

// checkDeclared compiles a declared kernel with and without its declaration
// and requires the identical compiled kernel: the warp template must be
// invisible in the stream, the per-SM accounting and the counts. It returns
// how many warps the declared compile derived.
func checkDeclared(t *testing.T, g *GPU, k Kernel) int64 {
	t.Helper()
	if k.Stride == 0 {
		return 0
	}
	undeclared := k
	undeclared.Stride = 0
	want, errWant := g.Compile(undeclared)
	before := g.Work().WarpsDerived
	got, errGot := g.Compile(k)
	derived := g.Work().WarpsDerived - before
	if (errWant == nil) != (errGot == nil) || (errWant != nil && errWant.Error() != errGot.Error()) {
		t.Fatalf("declared compile error divergence: undeclared %v, declared %v", errWant, errGot)
	}
	if errWant != nil {
		return derived
	}
	if err := got.Diff(want); err != nil {
		t.Fatalf("declared stride %d compiles differently: %v", k.Stride, err)
	}
	return derived
}

// FuzzBatchVsReference is the batch-vs-reference differential fuzzer: any
// decodable kernel must produce an identical Result — times, hit/miss
// deltas, transaction (coalescing) counts, bytes — from the compiled batch
// path and the per-access reference path, and the identical error when it
// is invalid. A declared kernel must also compile identically with its
// declaration dropped.
func FuzzBatchVsReference(f *testing.F) {
	f.Add([]byte{1, 0, 1, 3, 0, 0, 0, 0, 2, 10, 2, 7}, uint8(64))
	f.Add([]byte{1, 200, 0, 3, 2, 220, 1, 7}, uint8(33))  // pinned read + WC write
	f.Add([]byte{3, 8, 4, 15, 1, 8, 4, 15}, uint8(90))    // masked + partial warp
	f.Add([]byte{2, 63, 8, 31, 1, 63, 8, 31}, uint8(255)) // wide strides, many warps
	f.Add([]byte{4, 0, 1, 131}, uint8(31))                // 32 threads: lane 0 masked, odd lanes load, even lanes store
	for _, s := range declaredSeeds {
		f.Add(s.data, uint8(s.threads-1))
	}
	f.Fuzz(func(t *testing.T, data []byte, nthreads uint8) {
		threads := int(nthreads)%128 + 1
		ref, batch := twinGPUs()
		k := fuzzKernel(data, threads)
		checkDeclared(t, batch, k)

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
		derived int64
	}{
		{[]byte{1, 0, 1, 3, 0, 0, 0, 0, 2, 10, 2, 7}, 64, 0},
		{[]byte{1, 200, 0, 3, 2, 220, 1, 7}, 33, 0},
		{[]byte{3, 8, 4, 15, 1, 8, 4, 15}, 90, 0},
		{[]byte{2, 63, 8, 31, 1, 63, 8, 31}, 255, 6},
		{[]byte{1, 5, 0, 0}, 1, 0},
		{[]byte{4, 0, 1, 131}, 32, 0},
	}
	seeds = append(seeds, declaredSeeds...)
	for i, s := range seeds {
		ref, batch := twinGPUs()
		k := fuzzKernel(s.data, s.threads)
		if derived := checkDeclared(t, batch, k); derived != s.derived {
			t.Fatalf("seed %d: declared stride %d derived %d warps, want %d", i, k.Stride, derived, s.derived)
		}
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
	for _, k := range []Kernel{
		fuzzKernel([]byte{1, 0, 1, 3, 0, 0, 0, 0, 2, 10, 2, 7, 1, 200, 0, 3}, 128),
		fuzzKernel(declaredSeeds[1].data, declaredSeeds[1].threads), // warp-template path
	} {
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
			t.Fatalf("steady-state Launch of stride-%d kernel allocates %v times per run, want 0", k.Stride, allocs)
		}
	}
}

// TestLauncherSteadyStateZeroAlloc extends the gate to the cached-replay
// path model runs actually use: a warm Launcher.Launch validates the cache
// entry and replays without allocating.
func TestLauncherSteadyStateZeroAlloc(t *testing.T) {
	for _, shared := range []bool{false, true} {
		_, g := twinGPUs()
		if shared {
			g.SetKernelCache(NewKernelCache(testConfig(), 2))
		}
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
			t.Fatalf("steady-state Launcher.Launch (shared cache: %v) allocates %v times per run, want 0", shared, allocs)
		}
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
	key := kernelKey{scope: "xrun/fuzz", idx: 0}
	c := g.KernelCache()
	e := c.entries[key]
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
	// A recompile publishes a fresh entry; the first stays untouched.
	if e = c.entries[key]; !e.hashed {
		t.Fatal("second compile did not record the program fingerprint")
	}
	newRun()
	got, err := lch.Launch(0, k)
	if err != nil {
		t.Fatal(err)
	}
	if c.entries[key] != e {
		t.Fatal("third launch recompiled instead of replaying")
	}
	if g.validated[key] != e || g.validatedEpoch != g.PinnedEpoch() {
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
	if e = c.entries[key]; e.route == "" {
		t.Fatal("entry lost its routing evidence after recompile")
	}
	if got := len(e.ranges); got != 1 || e.ranges[0].hi != pinnedBase+4096 {
		t.Fatalf("entry not recompiled against new routing: ranges %+v", e.ranges)
	}
}

// TestLauncherDeclaredFingerprint pins the kernel cache's fingerprint for a
// declared affine kernel — (thread 0's program, stride, threads) — across
// pinned-routing rebuilds like soc.ResetState's: an unchanged kernel
// replays after emitting one program, not one per thread, while a moved
// buffer or a changed stride recompiles.
func TestLauncherDeclaredFingerprint(t *testing.T) {
	_, g := twinGPUs()
	lch := NewLauncher(g, "xrun/declared")
	mk := func(base, stride int64) Kernel {
		return Kernel{Name: "affine", Threads: 256, Stride: stride, Program: func(tid int, p *isa.Program) {
			p.Ld(base+int64(tid)*stride, 4)
			p.Compute(isa.FMA, 3)
			p.St(base+4096+int64(tid)*stride, 4)
		}}
	}
	// launch runs k in a new run and returns the compile work it took.
	launch := func(k Kernel) Work {
		t.Helper()
		g.ClearPinnedRanges()
		g.AddPinnedRange(pinnedBase, pinnedBase+8192)
		before := g.Work()
		if _, err := lch.Launch(0, k); err != nil {
			t.Fatal(err)
		}
		w := g.Work()
		return Work{
			KernelsCompiled: w.KernelsCompiled - before.KernelsCompiled,
			ProgramsEmitted: w.ProgramsEmitted - before.ProgramsEmitted,
		}
	}
	steps := []struct {
		name string
		k    Kernel
		want Work
	}{
		// Compile: warp 0's 32 lanes; the other 7 warps are derived.
		{"first compile", mk(0, 4), Work{KernelsCompiled: 1, ProgramsEmitted: 32}},
		// Second compile of the key also digests thread 0.
		{"recompile, fingerprinted", mk(0, 4), Work{KernelsCompiled: 1, ProgramsEmitted: 33}},
		{"unchanged replays", mk(0, 4), Work{ProgramsEmitted: 1}},
		{"moved buffer recompiles", mk(64, 4), Work{KernelsCompiled: 1, ProgramsEmitted: 34}},
		{"changed stride recompiles", mk(64, 8), Work{KernelsCompiled: 1, ProgramsEmitted: 34}},
		{"unchanged again replays", mk(64, 8), Work{ProgramsEmitted: 1}},
	}
	for _, st := range steps {
		if got := launch(st.k); got != st.want {
			t.Fatalf("%s: work %+v, want %+v", st.name, got, st.want)
		}
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
	if g.KernelCache().Stats().Entries != 0 {
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
	c := g.KernelCache()
	if c.bytes > kernelCacheBudget {
		t.Fatalf("kernel cache %d bytes exceeds budget %d", c.bytes, kernelCacheBudget)
	}
	if len(c.entries) >= 2000 {
		t.Fatalf("no eviction happened: %d entries resident", len(c.entries))
	}
	if len(c.entries) != len(c.order) {
		t.Fatalf("cache map (%d) and order list (%d) out of sync", len(c.entries), len(c.order))
	}
	if st := c.Stats(); st.Evictions != int64(2000-st.Entries) {
		t.Fatalf("%d evictions counted, %d of 2000 entries resident", st.Evictions, st.Entries)
	}
}
