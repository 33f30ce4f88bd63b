package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"igpucomm/internal/devices"
	"igpucomm/internal/microbench"
)

// fakeClock is a manually advanced clock for TTL tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestCacheKeyStability(t *testing.T) {
	cfg, err := devices.ByName(devices.TX2Name)
	if err != nil {
		t.Fatal(err)
	}
	p := microbench.TestParams()

	k1, err := CacheKey(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := CacheKey(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("same inputs hashed apart: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Errorf("key %q is not a sha256 hex digest", k1)
	}

	// Any physical difference must change the key, even under the same name.
	retuned := cfg
	retuned.GPU.LLCBandwidth *= 2
	k3, err := CacheKey(retuned, p)
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Error("retuned config hashed to the same key")
	}

	// Different micro-benchmark scales must also hash apart.
	k4, err := CacheKey(cfg, microbench.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if k4 == k1 {
		t.Error("different params hashed to the same key")
	}
}

func TestMemoHitMissCounters(t *testing.T) {
	m := newMemo[int](4, 0, time.Now)
	var calls atomic.Int32
	get := func(key string, v int) (int, error) {
		return m.do(context.Background(), key, func() (int, error) {
			calls.Add(1)
			return v, nil
		})
	}

	if v, err := get("a", 1); err != nil || v != 1 {
		t.Fatalf("cold get = %d, %v", v, err)
	}
	if v, err := get("a", 99); err != nil || v != 1 {
		t.Fatalf("warm get = %d, %v (must serve cached 1)", v, err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("compute ran %d times, want 1", got)
	}
	st := m.snapshot()
	if st.Hits != 1 || st.Misses != 1 || st.Executions != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 execution / 1 entry", st)
	}
}

func TestMemoErrorsAreNotCached(t *testing.T) {
	m := newMemo[int](4, 0, time.Now)
	boom := errors.New("boom")
	fail := true
	get := func() (int, error) {
		return m.do(context.Background(), "k", func() (int, error) {
			if fail {
				return 0, boom
			}
			return 7, nil
		})
	}
	if _, err := get(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	fail = false
	if v, err := get(); err != nil || v != 7 {
		t.Fatalf("retry = %d, %v, want 7 (failure must not be cached)", v, err)
	}
	if st := m.snapshot(); st.Executions != 2 {
		t.Errorf("executions = %d, want 2", st.Executions)
	}
}

func TestMemoLRUEviction(t *testing.T) {
	m := newMemo[int](2, 0, time.Now)
	m.put("a", 1)
	m.put("b", 2)
	// Touch a so b is the least recently used.
	if _, err := m.do(context.Background(), "a", func() (int, error) { return 0, errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
	m.put("c", 3)
	if _, ok := func() (int, bool) { m.lock(); defer m.unlock(); return m.lookupLocked("b") }(); ok {
		t.Error("b survived eviction; LRU should have dropped it")
	}
	if st := m.snapshot(); st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 1 eviction / 2 entries", st)
	}
}

func TestMemoTTLExpiry(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	m := newMemo[int](4, time.Minute, clock.now)
	m.put("a", 1)

	clock.advance(59 * time.Second)
	if v, err := m.do(context.Background(), "a", func() (int, error) { return 0, errors.New("must not run") }); err != nil || v != 1 {
		t.Fatalf("pre-TTL get = %d, %v, want cached 1", v, err)
	}

	clock.advance(2 * time.Second) // now 61s past insertion
	ran := false
	if v, err := m.do(context.Background(), "a", func() (int, error) { ran = true; return 2, nil }); err != nil || v != 2 {
		t.Fatalf("post-TTL get = %d, %v, want recomputed 2", v, err)
	}
	if !ran {
		t.Error("expired entry served from cache")
	}
	if st := m.snapshot(); st.Expirations != 1 {
		t.Errorf("expirations = %d, want 1", st.Expirations)
	}

	// dump must exclude expired entries.
	clock.advance(2 * time.Minute)
	if d := m.dump(); len(d) != 0 {
		t.Errorf("dump after expiry = %v, want empty", d)
	}
}

func TestEngineCharacterizeCaches(t *testing.T) {
	cfg, err := devices.ByName(devices.TX2Name)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 2})
	p := microbench.TestParams()

	c1, err := e.Characterize(context.Background(), cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := e.Characterize(context.Background(), cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", c1) != fmt.Sprintf("%+v", c2) {
		t.Error("cached characterization differs from the computed one")
	}
	st := e.Stats()
	if st.Characterizations.Executions != 1 {
		t.Errorf("executions = %d, want 1", st.Characterizations.Executions)
	}
	if st.Characterizations.Hits != 1 {
		t.Errorf("hits = %d, want 1", st.Characterizations.Hits)
	}
}

func TestEnginePersistRoundTrip(t *testing.T) {
	cfg, err := devices.ByName(devices.NanoName)
	if err != nil {
		t.Fatal(err)
	}
	p := microbench.TestParams()
	dir := t.TempDir()
	e := New(Options{Workers: 2, CacheDir: dir})
	want, err := e.Characterize(context.Background(), cfg, p)
	if err != nil {
		t.Fatal(err)
	}

	e2 := New(Options{Workers: 2, CacheDir: dir})
	n, err := e2.LoadCache()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("loaded %d entries, want 1", n)
	}
	got, err := e2.Characterize(context.Background(), cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Error("round-tripped characterization differs")
	}
	st := e2.Stats()
	if st.Characterizations.Executions != 0 {
		t.Errorf("warm engine executed %d characterizations, want 0", st.Characterizations.Executions)
	}
	if st.Characterizations.Hits != 1 {
		t.Errorf("warm engine hits = %d, want 1", st.Characterizations.Hits)
	}
}

// A malformed entry no longer fails the warm start: it is quarantined
// (skipped + counted) and the healthy entries still load.
func TestLoadCacheQuarantinesGarbage(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "deadbeef.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := New(Options{CacheDir: dir})
	n, err := e.LoadCache()
	if err != nil {
		t.Fatalf("LoadCache failed on a corrupt entry instead of quarantining: %v", err)
	}
	if n != 0 {
		t.Errorf("loaded %d entries, want 0", n)
	}
	if got := e.Stats().CacheCorruptEntries; got != 1 {
		t.Errorf("CacheCorruptEntries = %d, want 1", got)
	}
}

func TestFanOutReportsLowestIndexError(t *testing.T) {
	s := make(sem, 2)
	err := fanOut(context.Background(), s, 5, func(i int) error {
		if i == 1 || i == 3 {
			return fmt.Errorf("task %d failed", i)
		}
		return nil
	})
	if err == nil || err.Error() != "task 1 failed" {
		t.Errorf("err = %v, want the lowest-index failure", err)
	}
	if err := fanOut(context.Background(), s, 3, func(int) error { return nil }); err != nil {
		t.Errorf("all-success fanOut returned %v", err)
	}
}

// A panicking task degrades into a *PanicError instead of killing the
// process — the guarantee injected panic faults rely on.
func TestFanOutRecoversPanics(t *testing.T) {
	s := make(sem, 2)
	err := fanOut(context.Background(), s, 3, func(i int) error {
		if i == 1 {
			panic("boom")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = %+v, want value boom with a stack", pe)
	}
}

// A context cancelled before a task gets its slot skips the task and
// reports the cancellation.
func TestFanOutHonorsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := make(sem, 1)
	ran := false
	err := fanOut(ctx, s, 2, func(int) error { ran = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("task ran under a cancelled context")
	}
}
