package engine

import (
	"container/list"
	"context"
	"sync"
	"time"

	"igpucomm/internal/telemetry"
)

// MemoStats is one memo cache's counter snapshot, served by /statusz.
type MemoStats struct {
	// Hits are requests served from the cache.
	Hits uint64 `json:"hits"`
	// Misses are requests that found no live entry (every miss either
	// executes or piggybacks on an in-flight execution).
	Misses uint64 `json:"misses"`
	// Shared counts misses that piggybacked on an in-flight execution of
	// the same key instead of executing themselves (singleflight).
	Shared uint64 `json:"shared"`
	// Executions counts the compute functions actually run — for a given
	// key set this is the number of unique characterizations simulated.
	Executions uint64 `json:"executions"`
	// Evictions counts LRU capacity evictions; Expirations counts entries
	// dropped because their TTL lapsed.
	Evictions   uint64 `json:"evictions"`
	Expirations uint64 `json:"expirations"`
	// InFlight is the number of executions running right now.
	InFlight int `json:"in_flight"`
	// Entries is the current number of live cached values.
	Entries int `json:"entries"`
}

// flight is one in-progress execution other requests for the same key wait
// on.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

type memoEntry[V any] struct {
	key     string
	val     V
	expires time.Time // zero: never
}

// memo is an LRU-with-TTL cache fused with singleflight deduplication:
// concurrent do() calls for the same key share one execution, and completed
// values are retained until capacity or TTL turns them out. Safe for
// concurrent use. Errors are never cached.
type memo[V any] struct {
	mu       sync.Mutex
	capacity int
	ttl      time.Duration
	now      func() time.Time
	order    *list.List // front = most recently used
	entries  map[string]*list.Element
	inflight map[string]*flight[V]
	stats    MemoStats
}

// newMemo builds a cache; now must be non-nil (the engine passes its
// Clock's Now, defaulting to the wall clock).
func newMemo[V any](capacity int, ttl time.Duration, now func() time.Time) *memo[V] {
	if capacity <= 0 {
		capacity = 64
	}
	return &memo[V]{
		capacity: capacity,
		ttl:      ttl,
		now:      now,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*flight[V]),
	}
}

func (m *memo[V]) lock()   { m.mu.Lock() }
func (m *memo[V]) unlock() { m.mu.Unlock() }

// lookupLocked returns the live value for key, expiring it if its TTL
// lapsed. Caller holds the lock.
func (m *memo[V]) lookupLocked(key string) (V, bool) {
	var zero V
	el, ok := m.entries[key]
	if !ok {
		return zero, false
	}
	ent := el.Value.(*memoEntry[V])
	if !ent.expires.IsZero() && m.now().After(ent.expires) {
		m.order.Remove(el)
		delete(m.entries, key)
		m.stats.Expirations++
		return zero, false
	}
	m.order.MoveToFront(el)
	return ent.val, true
}

// putLocked inserts (or refreshes) a value, evicting from the LRU tail if
// over capacity. Caller holds the lock.
func (m *memo[V]) putLocked(key string, val V) {
	if el, ok := m.entries[key]; ok {
		ent := el.Value.(*memoEntry[V])
		ent.val = val
		ent.expires = m.deadline()
		m.order.MoveToFront(el)
		return
	}
	m.entries[key] = m.order.PushFront(&memoEntry[V]{key: key, val: val, expires: m.deadline()})
	for m.order.Len() > m.capacity {
		tail := m.order.Back()
		m.order.Remove(tail)
		delete(m.entries, tail.Value.(*memoEntry[V]).key)
		m.stats.Evictions++
	}
}

func (m *memo[V]) deadline() time.Time {
	if m.ttl <= 0 {
		return time.Time{}
	}
	return m.now().Add(m.ttl)
}

// put inserts a precomputed value (warm-start loading), reporting whether
// the key was new to the cache.
func (m *memo[V]) put(key string, val V) bool {
	m.lock()
	defer m.unlock()
	_, held := m.entries[key]
	m.putLocked(key, val)
	return !held
}

// do returns the cached value for key, or computes it via fn. Concurrent
// calls for one key share a single fn execution; its error is delivered to
// every sharer and not cached. A panic in fn is recovered into a
// *PanicError and delivered the same way, so the key's flight always ends.
// A sharer whose own context ends first stops waiting and returns ctx.Err().
// The context's current span (if any) is annotated with the cache outcome:
// hit, shared (singleflight piggyback) or miss (this call executed).
func (m *memo[V]) do(ctx context.Context, key string, fn func() (V, error)) (V, error) {
	span := telemetry.SpanFrom(ctx)
	m.lock()
	if v, ok := m.lookupLocked(key); ok {
		m.stats.Hits++
		m.unlock()
		span.SetAttr("cache", "hit")
		return v, nil
	}
	m.stats.Misses++
	if fl, ok := m.inflight[key]; ok {
		m.stats.Shared++
		m.unlock()
		span.SetAttr("cache", "shared")
		select {
		case <-fl.done:
			return fl.val, fl.err
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
	span.SetAttr("cache", "miss")
	fl := &flight[V]{done: make(chan struct{})}
	m.inflight[key] = fl
	m.stats.InFlight++
	m.unlock()

	func() {
		defer func() {
			if err := recovered(recover()); err != nil {
				fl.err = err
			}
		}()
		fl.val, fl.err = fn()
	}()

	m.lock()
	m.stats.Executions++
	m.stats.InFlight--
	delete(m.inflight, key)
	if fl.err == nil {
		m.putLocked(key, fl.val)
	}
	m.unlock()
	close(fl.done)
	return fl.val, fl.err
}

// snapshot returns the current stats.
func (m *memo[V]) snapshot() MemoStats {
	m.lock()
	defer m.unlock()
	st := m.stats
	st.Entries = m.order.Len()
	return st
}

// dump returns every live entry (expired ones excluded), for persistence.
func (m *memo[V]) dump() map[string]V {
	m.lock()
	defer m.unlock()
	out := make(map[string]V, len(m.entries))
	now := m.now()
	for key, el := range m.entries {
		ent := el.Value.(*memoEntry[V])
		if !ent.expires.IsZero() && now.After(ent.expires) {
			continue
		}
		out[key] = ent.val
	}
	return out
}
