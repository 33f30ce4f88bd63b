package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"sync"

	"igpucomm/internal/gpu"
	"igpucomm/internal/soc"
)

// sem is the engine's global simulation-concurrency bound. Coordination
// goroutines (batch requests waiting on a singleflight, assembly barriers)
// run unbounded — they are cheap and mostly blocked — but every goroutine
// that actually simulates holds a slot, so the total simulation parallelism
// never exceeds Options.Workers no matter how batches, characterizations and
// explorations nest.
type sem chan struct{}

func (s sem) acquire() { s <- struct{}{} }
func (s sem) release() { <-s }

// PanicError is a panic recovered at an engine goroutine boundary, converted
// into an ordinary error so a panicking simulation task (or an injected
// panic fault) degrades into a failed request instead of killing the
// process. The original panic value and stack are preserved for logs.
type PanicError struct {
	// Value is what the task panicked with.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error summarizes the recovered panic.
func (e *PanicError) Error() string { return fmt.Sprintf("engine: recovered panic: %v", e.Value) }

// recovered converts a recover() result into a *PanicError (nil for nil).
func recovered(r any) error {
	if r == nil {
		return nil
	}
	return &PanicError{Value: r, Stack: debug.Stack()}
}

// socPool recycles simulated platforms across engine tasks. Building a
// platform allocates every cache level's line arrays, so a fan-out that did
// soc.New per task paid that on every model run. Reuse is safe because every
// model Run begins with soc.ResetState, which restores a
// fresh-platform-equivalent state by contract (the engine's golden
// equivalence test holds it to that).
//
// Every platform the pool builds for one config shares that config's
// gpu.KernelCache, so a kernel compiled on one clone replays on all of them;
// each GPU revalidates a shared entry by content before replaying it. The
// shared cache's budget is perKey private budgets, the most the clones'
// caches could retain if each kept its own.
//
// Platforms are keyed by a content hash of their config: a renamed or
// retuned config can never receive another config's platform or kernels. A
// task that fails drops its platform instead of recycling it — an aborted
// run can leave buffers allocated, and a fresh build is cheaper than
// reasoning about partially torn-down state.
type socPool struct {
	mu     sync.Mutex
	perKey int
	socs   map[string][]*soc.SoC
	caches map[string]*gpu.KernelCache
	order  []string // keys, oldest first; bounded by maxPoolKeys
}

// maxPoolKeys bounds how many distinct configs the pool retains platforms
// and a kernel cache for; the oldest config's are dropped past it. Sized
// for the in-tree device catalog with headroom for retuned variants.
const maxPoolKeys = 16

func newSocPool(perKey int) *socPool {
	return &socPool{
		perKey: perKey,
		socs:   make(map[string][]*soc.SoC),
		caches: make(map[string]*gpu.KernelCache),
	}
}

// configKey content-hashes a platform config (CacheKey's scheme, without
// micro-benchmark params). An unencodable config yields "", which get/put
// treat as "never pool".
func configKey(cfg soc.Config) string {
	raw, err := json.Marshal(cfg)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// get returns an idle pooled platform for cfg, or builds one attached to
// the config's shared kernel cache. The returned key recycles the platform
// via put.
func (p *socPool) get(cfg soc.Config) (*soc.SoC, string) {
	key := configKey(cfg)
	if key == "" {
		return soc.New(cfg), key
	}
	p.mu.Lock()
	if idle := p.socs[key]; len(idle) > 0 {
		s := idle[len(idle)-1]
		p.socs[key] = idle[:len(idle)-1]
		p.mu.Unlock()
		return s, key
	}
	kc := p.caches[key]
	if kc == nil {
		kc = gpu.NewKernelCache(cfg.GPU, p.perKey)
		if len(p.order) >= maxPoolKeys {
			oldest := p.order[0]
			p.order = p.order[1:]
			delete(p.socs, oldest)
			delete(p.caches, oldest)
		}
		p.order = append(p.order, key)
		p.caches[key] = kc
	}
	p.mu.Unlock()
	s := soc.New(cfg)
	s.GPU.SetKernelCache(kc)
	return s, key
}

// put returns a platform to the pool. A failed task passes its error so the
// platform is dropped rather than recycled, as is one whose config was
// evicted (or evicted and rebuilt with a new cache) while it was out.
func (p *socPool) put(key string, s *soc.SoC, err error) {
	if key == "" || s == nil || err != nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if kc := p.caches[key]; kc == nil || kc != s.GPU.KernelCache() {
		return
	}
	if idle := p.socs[key]; len(idle) < p.perKey {
		p.socs[key] = append(idle, s)
	}
}

// fanOut runs task(0..n-1) concurrently, each under a semaphore slot, and
// waits for all of them. It returns the lowest-index error so the reported
// failure is deterministic regardless of scheduling. A task that panics is
// recovered into a *PanicError; a context already cancelled when a task's
// slot frees up skips the task and reports the context's error.
func fanOut(ctx context.Context, s sem, n int, task func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			defer func() {
				if err := recovered(recover()); err != nil {
					errs[i] = err
				}
			}()
			s.acquire()
			defer s.release()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			errs[i] = task(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
