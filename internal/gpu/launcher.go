package gpu

import (
	"fmt"

	"igpucomm/internal/isa"
)

// Launcher front-ends the compiled-kernel cache the GPU keeps across model
// runs. A model run creates one with a scope naming its launch sequence
// (typically "model/workload"); Launch(idx, k) then compiles on first use
// and replays the cached artifact on every later launch of the same kernel —
// across iterations of one run and across whole runs when the platform is
// reused.
//
// Cross-run reuse is verified, not assumed: when an entry's pinned epoch is
// stale (a ResetState happened since compile), its programs are re-emitted
// and their 128-bit content hash compared against the hash taken at compile
// time, and the pinned routing is checked by content. A mismatch recompiles,
// so a stale entry costs time, never correctness. Within one run the epoch
// cannot move after allocation, so replays validate on the epoch alone —
// kernels are deterministic per layout by the Kernel contract.
type Launcher struct {
	g     *GPU
	scope string
}

// NewLauncher returns a launcher for one run's launch sequence. scope keys
// the GPU's kernel cache; runs that repeat the same scope with the same
// deterministic kernels replay each other's compiled artifacts.
func NewLauncher(g *GPU, scope string) *Launcher {
	return &Launcher{g: g, scope: scope}
}

// Launch executes launch number idx of the scope's sequence. Results are
// byte-identical to g.Launch(k); reference mode and a negative idx bypass
// the cache through g.Launch.
func (l *Launcher) Launch(idx int, k Kernel) (Result, error) {
	g := l.g
	if g.refMode || idx < 0 {
		return g.Launch(k)
	}
	e, err := g.lookupKernel(l.scope, idx, k)
	if err != nil {
		return Result{}, err
	}
	return g.LaunchCompiled(&e.ck)
}

// cachedKernel is one kernel-cache entry: the compiled artifact plus the
// evidence that justifies replaying it — the program content hash and the
// pinned routing the compile saw. hashed reports whether the fingerprint was
// recorded: hashing costs a pass over every emitted run, so it is deferred
// until a key's second compile proves the key sees cross-run reuse;
// single-use kernels never pay for it.
type cachedKernel struct {
	ck      CompiledKernel
	threads int
	hashed  bool
	h1, h2  uint64
	path    MemPath
	ranges  []addrRange
}

// bytes approximates the entry's retained storage, for the cache budget:
// the capacity of every transaction chunk it owns plus the per-SM arrays.
func (e *cachedKernel) bytes() int64 {
	return e.ck.chunkBytes() + int64(cap(e.ck.smCompute))*20 + 64
}

type kernelKey struct {
	scope string
	idx   int
}

// kernelCacheBudget bounds the bytes the compiled-kernel cache retains per
// GPU; oldest entries are evicted first. Large enough for every in-tree
// sweep's working set, small enough that a long-lived engine cannot grow
// without bound.
const kernelCacheBudget = 64 << 20

// lookupKernel returns a valid, current compiled kernel for (scope, idx),
// revalidating a cached entry or (re)compiling into it.
//
// Validation is tiered by how much could have changed. Within one run the
// pinned epoch is constant after allocation, so an epoch-current entry is
// replayed with no further checks — kernels are deterministic per layout by
// the Kernel contract, and the layout cannot have moved without the epoch
// moving. Across runs (the epoch bumped at ResetState) the entry is only
// reused after the freshly emitted programs hash to the compile-time
// fingerprint and the pinned routing matches by content.
func (g *GPU) lookupKernel(scope string, idx int, k Kernel) (*cachedKernel, error) {
	if k.Threads <= 0 {
		return nil, fmt.Errorf("kernel %s: thread count %d must be positive", k.Name, k.Threads)
	}
	if k.Program == nil {
		return nil, fmt.Errorf("kernel %s: nil program", k.Name)
	}
	key := kernelKey{scope: scope, idx: idx}
	e := g.kcache[key]
	if e == nil {
		if g.kcache == nil {
			g.kcache = make(map[kernelKey]*cachedKernel)
		}
		e = &cachedKernel{}
		g.kcache[key] = e
		g.kcacheOrder = append(g.kcacheOrder, key)
		g.kcacheBytes += e.bytes()
	} else if e.ck.valid && e.threads == k.Threads {
		if e.ck.epoch == g.pinnedEpoch {
			return e, nil
		}
		if e.hashed {
			h1, h2 := g.hashPrograms(k)
			if e.h1 == h1 && e.h2 == h2 &&
				e.path == g.pinnedPath && rangesEqual(e.ranges, g.ranges) {
				e.ck.epoch = g.pinnedEpoch
				return e, nil
			}
		}
	}
	g.kcacheBytes -= e.bytes()
	// A second compile of the same key means the key sees cross-run reuse;
	// record the fingerprint this time so the next reuse can validate and
	// replay instead of compiling again.
	g.hashCompile = e.ck.valid
	err := g.CompileInto(k, &e.ck)
	e.hashed = g.hashCompile
	g.hashCompile = false
	// A failed compile leaves the entry resident with whatever chunks it
	// grew, so it is accounted either way.
	g.kcacheBytes += e.bytes()
	g.evictKernels(key)
	if err != nil {
		return nil, err
	}
	e.threads = k.Threads
	e.h1, e.h2 = e.ck.progH1, e.ck.progH2
	e.path = g.pinnedPath
	e.ranges = append(e.ranges[:0], g.ranges...)
	return e, nil
}

// laneDigest hashes one thread's emitted program into a 128-bit value (two
// independently mixed 64-bit lanes seeded by the thread id). Per-lane
// digests are summed to fingerprint a whole kernel — the sum commutes, so
// compile-order accumulation and hashPrograms' tid-major walk agree.
func laneDigest(tid int, runs []isa.Run) (uint64, uint64) {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h1 := uint64(fnvOffset) ^ uint64(tid)*fnvPrime
	h2 := uint64(0x9e3779b97f4a7c15) + uint64(tid)
	for _, r := range runs {
		h1 = (h1 ^ uint64(r.In.Op)) * fnvPrime
		h1 = (h1 ^ uint64(r.In.Addr)) * fnvPrime
		h1 = (h1 ^ uint64(r.In.Size)) * fnvPrime
		h1 = (h1 ^ uint64(r.Count)) * fnvPrime
		h2 ^= uint64(r.In.Op) + 0x9e3779b97f4a7c15
		h2 = (h2 ^ uint64(r.In.Addr)) * 0xff51afd7ed558ccd
		h2 ^= h2 >> 33
		h2 = (h2 ^ uint64(r.In.Size)*0xc4ceb9fe1a85ec53 + uint64(r.Count))
	}
	// Finalize so structurally similar lanes don't cancel under summation.
	h2 ^= h2 >> 29
	h2 *= 0xff51afd7ed558ccd
	h2 ^= h2 >> 32
	h1 ^= h1 >> 31
	h1 *= 0xc4ceb9fe1a85ec53
	h1 ^= h1 >> 29
	return h1, h2
}

// hashPrograms emits every thread's program and sums the lane digests into
// the kernel's 128-bit content fingerprint (same value CompileInto records
// in CompiledKernel as it emits). A declared affine kernel is fingerprinted
// by declaredDigest instead.
func (g *GPU) hashPrograms(k Kernel) (uint64, uint64) {
	if k.Stride != 0 {
		return g.declaredDigest(k)
	}
	var h1, h2 uint64
	p := &g.vprog
	for tid := 0; tid < k.Threads; tid++ {
		p.Reset()
		k.Program(tid, p)
		d1, d2 := laneDigest(tid, p.Runs())
		h1 += d1
		h2 += d2
	}
	g.work.ProgramsEmitted += int64(k.Threads)
	return h1, h2
}

// declaredDigest fingerprints a declared affine kernel as (thread 0's
// program, stride, threads): under the declaration those three determine
// every thread's program, so only thread 0 is emitted. A moved buffer moves
// thread 0's addresses; a changed stride or thread count is mixed in.
func (g *GPU) declaredDigest(k Kernel) (uint64, uint64) {
	p := &g.vprog
	p.Reset()
	k.Program(0, p)
	g.work.ProgramsEmitted++
	h1, h2 := laneDigest(0, p.Runs())
	// The declaration, digested as a zero-count run (no emitted program
	// has one) under the thread count's seed.
	s1, s2 := laneDigest(k.Threads, []isa.Run{{In: isa.Instr{Addr: k.Stride}}})
	return h1 ^ s1, h2 ^ s2
}

// evictKernels drops oldest entries until the cache fits its byte budget,
// never evicting keep (the entry just produced).
func (g *GPU) evictKernels(keep kernelKey) {
	for g.kcacheBytes > kernelCacheBudget && len(g.kcacheOrder) > 1 {
		victim := g.kcacheOrder[0]
		if victim == keep {
			// Rotate the protected entry to the back.
			g.kcacheOrder = append(g.kcacheOrder[1:], victim)
			continue
		}
		g.kcacheOrder = g.kcacheOrder[1:]
		if e := g.kcache[victim]; e != nil {
			g.kcacheBytes -= e.bytes()
			delete(g.kcache, victim)
		}
	}
}

func rangesEqual(a, b []addrRange) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
