package gpu

// Differential harness for the batch-kernel executor: the compiled path
// (compile once, replay through cache.DoBatch) must be byte-identical to the
// per-access reference executor (reference_test.go) for EVERY expressible
// kernel, and its steady state must not allocate. The fuzzer generates
// kernels from raw bytes — mixed strides, sizes, pinned and cached lanes,
// masked slots, partial warps — and fails on the first observable
// divergence. A decoded kernel whose memory slots all share one per-thread
// stride is declared affine, so the warp-template compile path is fuzzed
// against the same oracle.

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"igpucomm/internal/cache"
	"igpucomm/internal/coherence"
	"igpucomm/internal/heatmap"
	"igpucomm/internal/isa"
	"igpucomm/internal/memdev"
	"igpucomm/internal/units"
)

// pinnedBase is where the fuzz harness maps its pinned window; far above the
// cacheable working set so the two never alias.
const pinnedBase = int64(1) << 20

// twinGPUs builds two identically configured GPUs over separate DRAMs, both
// with an uncached pinned port: the first for the per-access reference
// executor, the second for the compiled path.
func twinGPUs() (ref, batch *GPU) {
	r, b := twinPlatforms(false)
	return r.g, b.g
}

// twinPlatform is one side of a differential pair: a GPU and every counter
// below it. With ioCoherent, the pinned path is an I/O-coherence port into
// a small CPU-LLC-shaped cache over its own DRAM port, as on Xavier, so
// pinned runs cross its lines, straddle them and evict dirty victims;
// otherwise it is an uncached DRAM port, as on Nano and TX2. Latencies are
// fractional so any change in the float addition order shows.
type twinPlatform struct {
	g       *GPU
	dram    *memdev.DRAM
	gpuDRAM *memdev.Port
	pinned  PinnedPath
	cpuLLC  *cache.Cache         // nil without ioCoherent
	heat    *heatmap.Accumulator // nil until diffLaunch attaches one
}

// twinPlatforms builds a differential pair: the first for the per-access
// reference executor, the second for the compiled path.
func twinPlatforms(ioCoherent bool) (ref, batch *twinPlatform) {
	build := func() *twinPlatform {
		p := &twinPlatform{dram: memdev.New(memdev.Config{Name: "dram", Latency: 200.5, Bandwidth: 25 * units.GBps})}
		p.gpuDRAM = p.dram.NewPort("gpu-dram")
		p.g = New(testConfig(), p.gpuDRAM)
		if ioCoherent {
			p.cpuLLC = cache.New(cache.Config{Name: "cpuLLC", Size: 2 * units.KiB, LineSize: 64, Ways: 2, HitLatency: 25.25}, p.dram.NewPort("cpu-dram"))
			p.pinned = coherence.NewIOPort("io", p.cpuLLC, 7.125)
		} else {
			p.pinned = p.dram.NewUncachedPortRW("pinned", 600.5, 60.25)
		}
		p.g.SetPinnedPath(p.pinned, 2*units.GBps)
		p.g.AddPinnedRange(pinnedBase, pinnedBase+8192)
		return p
	}
	return build(), build()
}

// state is every counter a launch moves below the GPU's Result.
type state struct {
	l1                 []cache.Stats
	llc, cpuLLC        cache.Stats
	gpuDRAM, pinned, d memdev.Stats
}

func (p *twinPlatform) state() state {
	st := state{llc: p.g.LLC().Stats(), gpuDRAM: p.gpuDRAM.Stats(), pinned: p.pinned.Stats(), d: p.dram.Stats()}
	for _, s := range p.g.sms {
		st.l1 = append(st.l1, s.l1.Stats())
	}
	if p.cpuLLC != nil {
		st.cpuLLC = p.cpuLLC.Stats()
	}
	return st
}

// diffLaunch launches k twice on a fresh differential pair — the second
// time on warm caches, so diverged residency shows — and requires identical
// results or errors, identical counters at every level and identical heat.
// The compiled side launches through a Launcher, the production entry: it
// compiles the first launch and replays the second from its cache.
// A declared kernel must also compile identically with its declaration
// dropped. It returns how many warps that declared compile derived.
func diffLaunch(t *testing.T, ioCoherent bool, k Kernel) int64 {
	t.Helper()
	ref, batch := twinPlatforms(ioCoherent)
	for _, p := range []*twinPlatform{ref, batch} {
		p.heat = heatmap.New(1<<21, 256)
		p.g.SetHeat(p.heat)
	}
	derived := checkDeclared(t, batch.g, k)
	lch := NewLauncher(batch.g, "")
	for launch := 0; launch < 2; launch++ {
		want, errRef := ref.g.launchReference(k)
		got, errBatch := lch.Launch(0, k)
		if (errRef == nil) != (errBatch == nil) || (errRef != nil && errRef.Error() != errBatch.Error()) {
			t.Fatalf("io-coherent %v: error divergence:\nreference: %v\nbatch:     %v", ioCoherent, errRef, errBatch)
		}
		if errRef != nil {
			return derived
		}
		if got != want {
			t.Fatalf("io-coherent %v launch %d: result divergence:\nreference: %+v\nbatch:     %+v", ioCoherent, launch, want, got)
		}
		if rs, bs := ref.state(), batch.state(); !reflect.DeepEqual(rs, bs) {
			t.Fatalf("io-coherent %v launch %d: counter divergence:\nreference: %+v\nbatch:     %+v", ioCoherent, launch, rs, bs)
		}
		if !reflect.DeepEqual(ref.heat, batch.heat) {
			t.Fatalf("io-coherent %v launch %d: heat divergence", ioCoherent, launch)
		}
	}
	return derived
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

// TestDiffStreamsPieces compares a declared MB3-shaped kernel, whose
// stream spans many resident batches, with its undeclared twin, whose pool
// spans many chunks, in both directions, and with a twin whose last warp
// stores elsewhere. Diff must find the one differing transaction and read
// both streams a bounded piece at a time, allocating far less than one
// copy of either.
func TestDiffStreamsPieces(t *testing.T) {
	const threads = 1 << 19
	const src, dst = pinnedBase, int64(1) << 24
	g, _ := testGPU(t)
	g.AddPinnedRange(src, src+threads*4)
	declared, err := g.Compile(mb3Stream(threads, src, dst, 4))
	if err != nil {
		t.Fatal(err)
	}
	twin := mb3Stream(threads, src, dst, 0)
	undeclared, err := g.Compile(twin)
	if err != nil {
		t.Fatal(err)
	}
	if len(undeclared.chunks) < 4 {
		t.Fatalf("undeclared stream spans %d chunks; the test needs several", len(undeclared.chunks))
	}
	moved := twin
	moved.Program = func(tid int, p *isa.Program) {
		off := int64(tid) * 4
		p.Ld(src+off, 4)
		p.Compute(isa.FMA, 4)
		if tid >= threads-32 {
			off += 1 << 20
		}
		p.St(dst+off, 4)
	}
	other, err := g.Compile(moved)
	if err != nil {
		t.Fatal(err)
	}
	var err1, err2, err3 error
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	err1, err2, err3 = declared.Diff(undeclared), undeclared.Diff(declared), declared.Diff(other)
	runtime.ReadMemStats(&ms1)
	if err1 != nil || err2 != nil {
		t.Fatalf("twins differ: %v; %v", err1, err2)
	}
	if err3 == nil || !strings.Contains(err3.Error(), "transaction ") {
		t.Fatalf("moved last warp: Diff = %v, want a differing transaction", err3)
	}
	flat := 2 * declared.Transactions() * int64(unsafe.Sizeof(pathAccess{}))
	if alloc := int64(ms1.TotalAlloc - ms0.TotalAlloc); alloc > flat/8 {
		t.Fatalf("three Diffs allocated %d bytes; one flat copy of both streams is %d", alloc, flat)
	}
}

// ioSeeds are seeds aimed at the I/O-coherence port's runs into the CPU
// LLC (2 KiB, 64 B lines, 2 ways); derived is how many warps the declared
// compile derives from warp 0.
var ioSeeds = []struct {
	data    []byte
	threads int
	derived int64
}{
	{[]byte{1, 192, 251, 3}, 64, 1},                                 // 4-byte lanes: each run crosses into the next line
	{[]byte{1, 193, 252, 7}, 32, 0},                                 // stride 5, 8-byte lanes: lane 12 straddles two lines
	{[]byte{2, 192, 8, 3, 1, 192, 251, 3}, 128, 0},                  // dirty-line stores, then read runs whose heads evict dirty victims
	{[]byte{1, 192, 251, 3, 2, 194, 251, 3, 1, 195, 251, 3}, 96, 2}, // read runs, write-combined writes, read runs
	{[]byte{1, 192, 251, 3, 1, 192, 251, 7}, 64, 1},                 // 4-byte reads, then 8-byte reads of the same lines
}

// FuzzBatchVsReference is the batch-vs-reference differential fuzzer: any
// decodable kernel must produce an identical Result — times, hit/miss
// deltas, transaction (coalescing) counts, bytes —, identical counters at
// every cache, port and DRAM, and identical heat from the compiled batch
// path and the per-access reference path, and the identical error when it
// is invalid, with the pinned path on an uncached port and on an
// I/O-coherence port. A declared kernel must also compile identically with
// its declaration dropped.
func FuzzBatchVsReference(f *testing.F) {
	f.Add([]byte{1, 0, 1, 3, 0, 0, 0, 0, 2, 10, 2, 7}, uint8(64))
	f.Add([]byte{1, 200, 0, 3, 2, 220, 1, 7}, uint8(33))  // pinned read + WC write
	f.Add([]byte{3, 8, 4, 15, 1, 8, 4, 15}, uint8(90))    // masked + partial warp
	f.Add([]byte{2, 63, 8, 31, 1, 63, 8, 31}, uint8(255)) // wide strides, many warps
	f.Add([]byte{4, 0, 1, 131}, uint8(31))                // 32 threads: lane 0 masked, odd lanes load, even lanes store
	for _, s := range declaredSeeds {
		f.Add(s.data, uint8(s.threads-1))
	}
	for _, s := range ioSeeds {
		f.Add(s.data, uint8(s.threads-1))
	}
	f.Fuzz(func(t *testing.T, data []byte, nthreads uint8) {
		k := fuzzKernel(data, int(nthreads)%128+1)
		for _, io := range []bool{false, true} {
			diffLaunch(t, io, k)
		}
	})
}

// TestBatchVsReferenceSeeds runs the fuzz seed corpus as a plain test so the
// differential contract is exercised on every `go test`, not only under
// -fuzz, and pins how many warps each declared seed derives.
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
	seeds = append(seeds, ioSeeds...)
	for i, s := range seeds {
		k := fuzzKernel(s.data, s.threads)
		for _, io := range []bool{false, true} {
			if derived := diffLaunch(t, io, k); derived != s.derived {
				t.Fatalf("seed %d: declared stride %d derived %d warps, want %d", i, k.Stride, derived, s.derived)
			}
		}
	}
}

// TestIOSeedsExerciseRuns requires the I/O-coherence seeds to reach what
// they aim at: pinned runs that batch lanes, heads that straddle lines and
// heads whose misses evict dirty CPU-LLC victims.
func TestIOSeedsExerciseRuns(t *testing.T) {
	var runs, txns, writebacks int64
	for _, s := range ioSeeds {
		_, p := twinPlatforms(true)
		if _, err := launch(p.g, fuzzKernel(s.data, s.threads)); err != nil {
			t.Fatal(err)
		}
		runs += p.g.Work().PinnedRuns
		txns += p.pinned.Stats().Reads + p.pinned.Stats().Writes
		writebacks += p.cpuLLC.Stats().Writebacks
	}
	if runs == 0 || runs*2 > txns {
		t.Fatalf("%d pinned runs for %d pinned transactions: the runs barely batch", runs, txns)
	}
	if writebacks == 0 {
		t.Fatal("no run head evicted a dirty CPU-LLC line")
	}
}

// TestLaunchSteadyStateZeroAlloc is the allocation gate on the compile
// pass: once warm, compiling a kernel into a reused artifact — emission,
// compile walk, coalescing — and replaying it through the batch cache
// kernels must not allocate at all.
func TestLaunchSteadyStateZeroAlloc(t *testing.T) {
	_, g := twinGPUs()
	var ck CompiledKernel
	compileReplay := func(k Kernel) {
		if err := g.CompileInto(k, &ck); err != nil {
			t.Fatal(err)
		}
		if _, err := g.LaunchCompiled(&ck); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []Kernel{
		fuzzKernel([]byte{1, 0, 1, 3, 0, 0, 0, 0, 2, 10, 2, 7, 1, 200, 0, 3}, 128),
		fuzzKernel(declaredSeeds[1].data, declaredSeeds[1].threads), // warp-template path
	} {
		for i := 0; i < 3; i++ { // warm scratch to steady-state capacity
			compileReplay(k)
		}
		allocs := testing.AllocsPerRun(50, func() { compileReplay(k) })
		if allocs != 0 {
			t.Fatalf("steady-state compile and replay of stride-%d kernel allocates %v times per run, want 0", k.Stride, allocs)
		}
	}
}

// TestLauncherSteadyStateZeroAlloc extends the gate to the cached-replay
// path model runs actually use: a warm Launcher.Launch, declared or not,
// validates the cache entry and replays without allocating.
func TestLauncherSteadyStateZeroAlloc(t *testing.T) {
	for _, shared := range []bool{false, true} {
		for _, scope := range []string{"alloc-test/fuzz", ""} {
			testLauncherZeroAlloc(t, shared, scope)
		}
	}
}

func testLauncherZeroAlloc(t *testing.T, shared bool, scope string) {
	_, g := twinGPUs()
	if shared {
		g.SetKernelCache(NewKernelCache(testConfig(), 2))
	}
	lch := NewLauncher(g, scope)
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
		t.Fatalf("steady-state Launcher.Launch (shared cache: %v, scope %q) allocates %v times per run, want 0", shared, scope, allocs)
	}
}

// TestLauncherCrossRunReplay pins the cross-run reuse protocol on a
// declared scope: across pinned-routing rebuilds that restore the same
// routing (what soc.ResetState does between model runs), a key compiles in
// its first run, and from the second run on the launcher replays the shared
// entry on the declaration alone — no compile and no emitted program — with
// results identical to the first run's from the same cold caches.
func TestLauncherCrossRunReplay(t *testing.T) {
	_, g := twinGPUs()
	lch := NewLauncher(g, "xrun/fuzz")
	k := fuzzKernel([]byte{1, 0, 1, 3, 2, 10, 2, 7}, 64)
	key := kernelKey{scope: "xrun/fuzz", idx: 0}
	c := g.KernelCache()
	var first Result
	for run, want := range []Work{
		{KernelsCompiled: 1, ProgramsEmitted: 64, KernelsReplayed: 1},
		{KernelsReplayed: 1},
		{KernelsReplayed: 1},
		{KernelsReplayed: 1},
	} {
		newRun(8192, g)
		g.InvalidateCaches()
		before := g.Work()
		got, err := lch.Launch(0, k)
		if err != nil {
			t.Fatal(err)
		}
		if w := compileWork(before, g.Work()); w != want {
			t.Fatalf("run %d: work %+v, want %+v", run, w, want)
		}
		if run == 0 {
			first = got
		} else if got != first {
			t.Fatalf("run %d replayed %+v, first run %+v", run, got, first)
		}
		if e := c.entries[key]; g.validated[key] != e {
			t.Fatalf("run %d: record %p, shared entry %+v", run, g.validated[key], e)
		}
	}
}

// compileWork is the work between two Work snapshots, without the
// transaction counts.
func compileWork(before, after Work) Work {
	return Work{
		KernelsCompiled: after.KernelsCompiled - before.KernelsCompiled,
		ProgramsEmitted: after.ProgramsEmitted - before.ProgramsEmitted,
		KernelsReplayed: after.KernelsReplayed - before.KernelsReplayed,
	}
}

// TestLauncherDeclaredScope pins what a declared scope's cross-run replay
// checks and what it trusts, on a declared affine kernel. A keyed hit
// emits no program. A changed scope — what comm declares for a moved
// buffer or a changed workload Key — is a different key and compiles; a
// changed thread count or a changed pinned routing recompiles the same key.
// A launcher with an empty scope compiles in every run and replays only
// within its own.
func TestLauncherDeclaredScope(t *testing.T) {
	_, g := twinGPUs()
	mk := func(base int64, threads int) Kernel {
		return Kernel{Name: "affine", Threads: threads, Stride: 4, Program: func(tid int, p *isa.Program) {
			p.Ld(base+int64(tid)*4, 4)
			p.Compute(isa.FMA, 3)
			p.St(base+4096+int64(tid)*4, 4)
		}}
	}
	// launch runs k on a new launcher of scope in a new run whose pinned
	// range is pinned bytes long, twice, and returns the work it took.
	launch := func(scope string, pinned int64, k Kernel) Work {
		t.Helper()
		newRun(pinned, g)
		lch := NewLauncher(g, scope)
		before := g.Work()
		for i := 0; i < 2; i++ {
			if _, err := lch.Launch(0, k); err != nil {
				t.Fatal(err)
			}
		}
		return compileWork(before, g.Work())
	}
	compile := Work{KernelsCompiled: 1, ProgramsEmitted: 32, KernelsReplayed: 2}
	replay := Work{KernelsReplayed: 2}
	steps := []struct {
		name   string
		scope  string
		pinned int64
		k      Kernel
		want   Work
	}{
		{"first compile", "a", 8192, mk(0, 256), compile},
		{"keyed hit replays", "a", 8192, mk(0, 256), replay},
		{"changed scope compiles", "b", 8192, mk(64, 256), compile},
		{"changed thread count recompiles", "a", 8192, mk(0, 128), compile},
		{"changed pinned routing recompiles", "a", 4096, mk(0, 128), compile},
		{"unchanged again replays", "a", 4096, mk(0, 128), replay},
		{"undeclared compiles", "", 8192, mk(0, 256), compile},
		{"undeclared compiles in every run", "", 8192, mk(0, 256), compile},
	}
	for _, st := range steps {
		if got := launch(st.scope, st.pinned, st.k); got != st.want {
			t.Fatalf("%s: work %+v, want %+v", st.name, got, st.want)
		}
	}
	for key := range g.KernelCache().entries {
		if key.scope == "" || key.own != nil {
			t.Fatalf("an undeclared launch was published to the shared cache as %+v", key)
		}
	}
}

// TestLauncherBypassesMatchLaunch pins the launcher's one bypass, the
// test-only reference seam (UseReference): with it set, a launch runs the
// per-access reference executor, matches the compiled launch of a twin and
// leaves the kernel cache empty. Invalid kernels are rejected either way.
func TestLauncherBypassesMatchLaunch(t *testing.T) {
	ref, g := twinGPUs()
	k := fuzzKernel([]byte{1, 0, 1, 3}, 64)
	want, err := NewLauncher(g, "bypass/fuzz").Launch(0, k)
	if err != nil {
		t.Fatal(err)
	}
	UseReference(ref)
	lch := NewLauncher(ref, "bypass/fuzz")
	got, err := lch.Launch(0, k)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("reference-seam launch diverged from the compiled launch:\nreference: %+v\ncompiled:  %+v", got, want)
	}
	if w := ref.Work(); ref.KernelCache().Stats().Entries != 0 || w.KernelsCompiled != 0 || w.KernelsReplayed != 0 {
		t.Fatalf("reference-seam launch reached the compiled path: work %+v, cache %+v", w, ref.KernelCache().Stats())
	}
	for _, l := range []*Launcher{lch, NewLauncher(g, "bypass/fuzz")} {
		if _, err := l.Launch(1, Kernel{Name: "bad", Threads: 0, Program: func(int, *isa.Program) {}}); err == nil {
			t.Fatal("launcher accepted zero threads")
		}
		if _, err := l.Launch(2, Kernel{Name: "nil", Threads: 4}); err == nil {
			t.Fatal("launcher accepted nil program")
		}
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
