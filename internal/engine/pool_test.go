package engine

import (
	"errors"
	"testing"

	"igpucomm/internal/devices"
)

// TestSocPoolRecyclesPerKey pins the pool's core behavior: a returned
// platform is handed back for the same config (same instance, warm caches
// and all), a different config never receives it, and the idle list never
// grows past perKey. Every platform built for one config shares one kernel
// cache, another config gets its own, and evicting a config's key drops its
// cache.
func TestSocPoolRecyclesPerKey(t *testing.T) {
	all := devices.All()
	p := newSocPool(2)

	s1, k1 := p.get(all[0])
	if k1 == "" {
		t.Fatal("catalog config produced an empty pool key")
	}
	p.put(k1, s1, nil)
	s2, _ := p.get(all[0])
	if s2 != s1 {
		t.Error("same config did not receive the recycled platform")
	}

	sOther, kOther := p.get(all[1])
	if kOther == k1 {
		t.Error("distinct configs hashed to the same pool key")
	}
	if sOther == s1 {
		t.Error("a different config received another config's platform")
	}

	// perKey cap: returning three platforms keeps at most two idle.
	s3, _ := p.get(all[0])
	s4, _ := p.get(all[0])
	p.put(k1, s2, nil)
	p.put(k1, s3, nil)
	p.put(k1, s4, nil)
	if got := len(p.socs[k1]); got != 2 {
		t.Errorf("idle list holds %d platforms, perKey cap is 2", got)
	}

	kc := s1.GPU.KernelCache()
	if s3.GPU.KernelCache() != kc || s4.GPU.KernelCache() != kc {
		t.Error("platforms built for one config do not share its kernel cache")
	}
	if sOther.GPU.KernelCache() == kc {
		t.Error("a different config shares another config's kernel cache")
	}

	// Push all[0]'s key out with maxPoolKeys newer configs.
	for i := 0; i < maxPoolKeys; i++ {
		cfg := all[1]
		cfg.Name += string(rune('a' + i))
		p.get(cfg)
	}
	if _, ok := p.caches[k1]; ok {
		t.Error("evicted key kept its kernel cache")
	}
	p.put(k1, s2, nil)
	if got := len(p.socs[k1]); got != 0 {
		t.Errorf("a platform of the evicted key was pooled (%d idle)", got)
	}
	if s5, _ := p.get(all[0]); s5.GPU.KernelCache() == kc {
		t.Error("a rebuilt key reused the evicted kernel cache")
	}
}

// TestSocPoolDropsOnError checks the failure contract: a task that errored
// must not recycle its platform — an aborted run can leave buffers allocated.
func TestSocPoolDropsOnError(t *testing.T) {
	cfg := devices.All()[0]
	p := newSocPool(4)
	s, k := p.get(cfg)
	p.put(k, s, errors.New("task failed"))
	if got := len(p.socs[k]); got != 0 {
		t.Errorf("errored task's platform was pooled (%d idle)", got)
	}
	p.put("", s, nil) // unpoolable key: must be a no-op, not a panic
	if got := len(p.socs[""]); got != 0 {
		t.Error("empty key was pooled")
	}
	p.put(k, nil, nil) // nil platform: same
	if got := len(p.socs[k]); got != 0 {
		t.Error("nil platform was pooled")
	}
}

// TestSocPoolEvictsOldestKey checks the key bound: past maxPoolKeys distinct
// configs, the oldest config's idle platforms are dropped so the pool cannot
// grow without bound under a config sweep.
func TestSocPoolEvictsOldestKey(t *testing.T) {
	base := devices.All()[0]
	p := newSocPool(1)
	var keys []string
	for i := 0; i <= maxPoolKeys; i++ {
		cfg := base
		cfg.Name = cfg.Name + string(rune('a'+i)) // distinct content hash
		s, k := p.get(cfg)
		p.put(k, s, nil)
		keys = append(keys, k)
	}
	if _, ok := p.socs[keys[0]]; ok {
		t.Error("oldest key survived past maxPoolKeys")
	}
	if got := len(p.socs); got != maxPoolKeys {
		t.Errorf("pool retains %d keys, want %d", got, maxPoolKeys)
	}
	if got := len(p.order); got != maxPoolKeys {
		t.Errorf("eviction order tracks %d keys, want %d", got, maxPoolKeys)
	}
	if got := len(p.caches); got != maxPoolKeys {
		t.Errorf("pool retains %d kernel caches, want %d", got, maxPoolKeys)
	}
	for _, k := range keys[1:] {
		if _, ok := p.socs[k]; !ok {
			t.Errorf("recent key %s was evicted", k[:8])
		}
	}
}
