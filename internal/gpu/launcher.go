package gpu

import (
	"fmt"
	"sync"

	"igpucomm/internal/isa"
)

// Launcher front-ends the compiled-kernel cache (KernelCache) the GPU keeps
// across model runs. A model run creates one with a scope naming its launch
// sequence (typically "model/workload"); Launch(idx, k) then compiles on
// first use and replays the cached artifact on every later launch of the
// same kernel — across iterations of one run, across whole runs when the
// platform is reused, and across every GPU sharing the cache.
//
// Cache entries are shared and immutable once published; validation is per
// GPU. Each GPU records which entry it last validated for a key, and under
// which pinned epoch. Within one run the epoch cannot move after
// allocation, so an epoch-current record replays on the record alone —
// kernels are deterministic per layout by the Kernel contract. Otherwise
// (a new run, or no record for the key yet) the GPU re-emits the programs,
// compares their 128-bit content hash against the hash taken at compile
// time, and checks the pinned routing by content. A mismatch recompiles
// into a fresh entry, so a stale entry costs time, never correctness.
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
	// lookupKernel validated e for this GPU's current routing; e.ck.epoch
	// is the compiling GPU's, so LaunchCompiled's epoch check does not apply.
	return g.replayKernel(&e.ck), nil
}

// cachedKernel is one kernel-cache entry: the compiled artifact plus the
// evidence that justifies replaying it — the program content hash and the
// pinned routing the compile saw. hashed reports whether the fingerprint was
// recorded: hashing costs a pass over every emitted run, so it is deferred
// until a key's second compile proves the key sees cross-run reuse;
// single-use kernels never pay for it. An entry is never written once
// published, so a GPU may keep replaying it after another GPU replaced it
// or the cache evicted it. A marker (see KernelCache.demote) is an entry
// with no compiled kernel and zero threads, which no lookup replays.
type cachedKernel struct {
	ck      CompiledKernel
	threads int
	hashed  bool
	h1, h2  uint64
	route   string // the pinned route's Name()
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
// GPU sharing it; oldest entries are evicted first. Large enough for every
// in-tree sweep's working set, small enough that a long-lived engine cannot
// grow without bound.
const kernelCacheBudget = 64 << 20

// KernelCache holds compiled kernels, keyed by (scope, launch index), for
// every GPU of one Config that shares it. New gives each GPU a private
// cache; SetKernelCache attaches several GPUs to one, so a kernel compiled
// on one replays on all. Entries are evicted oldest-first past a byte
// budget. Safe for concurrent use.
type KernelCache struct {
	cfg    Config
	budget int64

	mu        sync.Mutex
	entries   map[kernelKey]*cachedKernel
	order     []kernelKey // keys, oldest first
	bytes     int64
	evictions int64
}

// NewKernelCache returns an empty cache for GPUs of cfg, sized for gpus
// GPUs sharing it: its budget is gpus times the per-GPU budget a private
// cache gets.
func NewKernelCache(cfg Config, gpus int) *KernelCache {
	return &KernelCache{cfg: cfg, budget: int64(gpus) * kernelCacheBudget}
}

// KernelCacheStats is a snapshot of a KernelCache.
type KernelCacheStats struct {
	// Entries is the number of resident compiled kernels.
	Entries int
	// Bytes is their accounted storage.
	Bytes int64
	// Evictions counts entries dropped to fit the budget since creation.
	Evictions int64
}

// Stats returns the cache's current size and eviction count.
func (c *KernelCache) Stats() KernelCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return KernelCacheStats{Entries: len(c.entries), Bytes: c.bytes, Evictions: c.evictions}
}

// get returns the entry published for key, or nil.
func (c *KernelCache) get(key kernelKey) *cachedKernel {
	c.mu.Lock()
	e := c.entries[key]
	c.mu.Unlock()
	return e
}

// publish makes e the entry for key, replacing any older one, and evicts
// past the budget. e must not be written afterwards. own is the publishing
// GPU's validation record; an evicted entry is dropped from it, so a GPU
// that compiles many kernels in one run retains no more than the budget.
func (c *KernelCache) publish(key kernelKey, e *cachedKernel, own map[kernelKey]*cachedKernel) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.entries[key]; old != nil {
		c.bytes -= old.bytes()
	} else {
		if c.entries == nil {
			c.entries = make(map[kernelKey]*cachedKernel)
		}
		c.order = append(c.order, key)
	}
	c.entries[key] = e
	c.bytes += e.bytes()
	// Drop oldest entries until the cache fits, never evicting key (the
	// entry just published).
	for c.bytes > c.budget && len(c.order) > 1 {
		victim := c.order[0]
		if victim == key {
			// Rotate the protected entry to the back.
			c.order = append(c.order[1:], victim)
			continue
		}
		c.order = c.order[1:]
		if v := c.entries[victim]; v != nil {
			c.bytes -= v.bytes()
			delete(c.entries, victim)
			c.evictions++
			if own[victim] == v {
				delete(own, victim)
			}
		}
	}
}

// demote replaces e, if it is still key's entry, with a marker that holds
// no compiled kernel: a key's first compile records no fingerprint, so it
// can only be replayed through the validation record of the GPU that
// compiled it. The marker keeps the key known, so its next compile records
// the fingerprint and publishes a replayable entry, while the unreplayable
// stream stops counting against the budget and is freed once that GPU's
// record lets go of it.
func (c *KernelCache) demote(key kernelKey, e *cachedKernel) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e != nil && c.entries[key] == e {
		m := &cachedKernel{}
		c.bytes += m.bytes() - e.bytes()
		c.entries[key] = m
	}
}

// lookupKernel returns a compiled kernel for (scope, idx) that is valid for
// this GPU's current routing: one this GPU already validated in the current
// pinned epoch, the shared entry once validated, or a fresh compile
// published in its place.
//
// Validation is tiered by how much could have changed. g.validated records,
// per key, the entry this GPU validated under the current pinned epoch;
// such an entry replays with no further checks, even if another GPU has
// since replaced it — within one run the layout cannot move without the
// epoch moving, and kernels are deterministic per layout by the Kernel
// contract. The record is dropped when the epoch moves (see dropRecords).
// Any other entry (a new run, or one another GPU published) is only reused
// after the freshly emitted programs hash to its compile-time fingerprint
// and the pinned routing matches by content: the same route name and the
// same ranges.
func (g *GPU) lookupKernel(scope string, idx int, k Kernel) (*cachedKernel, error) {
	if k.Threads <= 0 {
		return nil, fmt.Errorf("kernel %s: thread count %d must be positive", k.Name, k.Threads)
	}
	if k.Program == nil {
		return nil, fmt.Errorf("kernel %s: nil program", k.Name)
	}
	if g.validatedEpoch != g.pinnedEpoch {
		g.dropRecords()
		g.validatedEpoch = g.pinnedEpoch
	}
	key := kernelKey{scope: scope, idx: idx}
	if e := g.validated[key]; e != nil && e.threads == k.Threads {
		return e, nil
	}
	e := g.kc.get(key)
	if e != nil && e.threads == k.Threads && e.hashed {
		h1, h2 := g.hashPrograms(k)
		if e.h1 == h1 && e.h2 == h2 &&
			e.route == g.pinnedRoute && rangesEqual(e.ranges, g.ranges) {
			g.validated[key] = e
			return e, nil
		}
	}
	// A second compile of the same key means the key sees cross-run reuse;
	// record the fingerprint this time so the next reuse can validate and
	// replay instead of compiling again. Published entries are immutable,
	// so the compile goes into a fresh one.
	n := &cachedKernel{hashed: e != nil}
	g.hashCompile = n.hashed
	err := g.CompileInto(k, &n.ck)
	g.hashCompile = false
	if err != nil {
		// The key's published entry, if any, stays for a later lookup.
		return nil, err
	}
	n.threads = k.Threads
	n.h1, n.h2 = n.ck.progH1, n.ck.progH2
	n.route = g.pinnedRoute
	n.ranges = append([]addrRange(nil), g.ranges...)
	g.kc.publish(key, n, g.validated)
	g.validated[key] = n
	if !n.hashed {
		g.firsts = append(g.firsts, key)
	}
	return n, nil
}

// dropRecords clears the GPU's validation record, first demoting the
// unfingerprinted entries it published under the record's epoch: no later
// lookup can validate such an entry, so only the fact that its key was
// compiled is worth keeping (see KernelCache.demote).
func (g *GPU) dropRecords() {
	for _, key := range g.firsts {
		g.kc.demote(key, g.validated[key])
	}
	g.firsts = g.firsts[:0]
	clear(g.validated)
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
