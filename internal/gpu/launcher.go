package gpu

import (
	"fmt"
	"sync"
)

// Launcher front-ends the compiled-kernel cache (KernelCache) the GPU keeps
// across model runs. A model run creates one with a scope declaring the
// identity of its launch sequence; Launch(idx, k) then compiles on first use
// and replays the cached artifact on every later launch of the same kernel —
// across iterations of one run, across whole runs when the platform is
// reused, and across every GPU sharing the cache.
//
// The scope is a declaration, not evidence: the caller promises that every
// launch it names with the same (scope, idx) emits the same programs, and
// the cache never re-emits a program to check. comm builds it from the
// model, the workload's name and Key, and the placed layouts (see
// comm.Workload.Key). An empty scope declares nothing: its kernels replay
// only within the launcher's own run and compile again in the next.
//
// Cache entries are shared and immutable once published; validation is per
// GPU. Each GPU records which entry it last validated for a key, and under
// which pinned epoch. Within one run the epoch cannot move after
// allocation, so an epoch-current record replays on the record alone.
// Otherwise (a new run, or no record for the key yet) the shared entry
// replays when the thread count and the pinned routing match by content;
// anything else recompiles into a fresh entry. A declared affine kernel's
// entry holds its warp template, not its derived warps (see
// CompiledKernel), so keeping every entry until the byte budget evicts it
// costs little for the kernels whose streams would be largest.
type Launcher struct {
	g     *GPU
	scope string
}

// NewLauncher returns a launcher for one run's launch sequence. scope keys
// the GPU's kernel cache: runs that declare the same non-empty scope replay
// each other's compiled artifacts.
func NewLauncher(g *GPU, scope string) *Launcher {
	return &Launcher{g: g, scope: scope}
}

// Launch executes launch number idx of the scope's sequence and returns its
// timing and traffic. It is the GPU's one production launch path: it
// compiles the kernel on the first launch of its key and replays the cached
// artifact through the batch cache kernels after that (see lookupKernel).
// Warps are distributed round-robin over SMs, and each SM executes its
// warps in resident batches, interleaved instruction by instruction — the
// warp-scheduler behaviour that makes per-warp working sets contend for the
// SM's L1. It is an error, reported before any cache state is touched, for
// the kernel to have no threads or no program, for lanes of one warp to
// diverge in opcode sequence or length, or for a program to emit an invalid
// instruction.
func (l *Launcher) Launch(idx int, k Kernel) (Result, error) {
	g := l.g
	if g.oracle != nil {
		return g.oracle(k)
	}
	e, err := g.lookupKernel(l, idx, k)
	if err != nil {
		return Result{}, err
	}
	// lookupKernel validated e for this GPU's current routing; e.ck.epoch
	// is the compiling GPU's, so LaunchCompiled's epoch check does not apply.
	return g.replayKernel(&e.ck), nil
}

// cachedKernel is one kernel-cache entry: the compiled artifact plus the
// launch shape and the pinned routing the compile saw, which a lookup
// matches before replaying it. An entry is never written once published,
// so a GPU may keep replaying it after another GPU replaced it or the cache
// evicted it.
type cachedKernel struct {
	ck      CompiledKernel
	threads int
	route   string // the pinned route's Name()
	ranges  []addrRange
}

// bytes approximates the entry's retained storage, for the cache budget:
// what its compiled kernel holds (see CompiledKernel.storageBytes) plus a
// fixed overhead. A declared affine kernel holds its warp template and a
// few ops, not its derived warps' transactions, so its entry is the same
// size at any thread count.
func (e *cachedKernel) bytes() int64 {
	return e.ck.storageBytes() + 64
}

// kernelKey names one launch of a launcher's sequence. own is set only for a
// launcher with an empty scope: its kernels are this launcher's alone and
// never published to the shared cache.
type kernelKey struct {
	scope string
	idx   int
	own   *Launcher
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

// lookupKernel returns a compiled kernel for launch idx of l's sequence
// that is valid for this GPU's current routing: one this GPU already
// validated in the current pinned epoch, the shared entry once its launch
// shape and routing match, or a fresh compile published in its place.
//
// g.validated records, per key, the entry this GPU validated under the
// current pinned epoch; such an entry replays with no further checks, even
// if another GPU has since replaced it — within one run the layout cannot
// move without the epoch moving, and kernels are deterministic per layout
// by the Kernel contract. The record is cleared when the epoch moves. A
// shared entry replays on l's scope declaration once the thread count
// matches and the pinned routing matches by content: the same route name
// and the same ranges. No program is emitted to check it. A launcher with
// an empty scope never reads or publishes a shared entry: its compiles live
// in this GPU's record only.
func (g *GPU) lookupKernel(l *Launcher, idx int, k Kernel) (*cachedKernel, error) {
	if k.Threads <= 0 {
		return nil, fmt.Errorf("kernel %s: thread count %d must be positive", k.Name, k.Threads)
	}
	if k.Program == nil {
		return nil, fmt.Errorf("kernel %s: nil program", k.Name)
	}
	if g.validatedEpoch != g.pinnedEpoch {
		clear(g.validated)
		g.validatedEpoch = g.pinnedEpoch
	}
	key := kernelKey{scope: l.scope, idx: idx}
	if l.scope == "" {
		key.own = l
	}
	if e := g.validated[key]; e != nil && e.threads == k.Threads {
		return e, nil
	}
	if key.own == nil {
		if e := g.kc.get(key); e != nil && e.threads == k.Threads &&
			e.route == g.pinnedRoute && rangesEqual(e.ranges, g.ranges) {
			g.validated[key] = e
			return e, nil
		}
	}
	// Published entries are immutable, so a recompile goes into a fresh one.
	n := &cachedKernel{}
	if err := g.CompileInto(k, &n.ck); err != nil {
		// The key's published entry, if any, stays for a later lookup.
		return nil, err
	}
	n.threads = k.Threads
	n.route = g.pinnedRoute
	n.ranges = append([]addrRange(nil), g.ranges...)
	g.validated[key] = n
	if key.own != nil {
		return n, nil
	}
	g.kc.publish(key, n, g.validated)
	return n, nil
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
