package engine

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"igpucomm/internal/devices"
	"igpucomm/internal/faults"
	"igpucomm/internal/microbench"
)

// saveOneEntry characterizes one device and persists the cache, returning
// the engine and the entry's path.
func saveOneEntry(t testing.TB, dir string) (*Engine, string) {
	t.Helper()
	cfg, err := devices.ByName(devices.TX2Name)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 2})
	if _, err := e.Characterize(context.Background(), cfg, microbench.TestParams()); err != nil {
		t.Fatal(err)
	}
	if n, err := e.SaveCache(dir); err != nil || n != 1 {
		t.Fatalf("SaveCache = %d, %v", n, err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(names) != 1 {
		t.Fatalf("cache files = %v, %v", names, err)
	}
	return e, names[0]
}

// SaveCache must leave no temp droppings and must pair every entry with a
// checksum sidecar.
func TestSaveCacheWritesChecksummedEntries(t *testing.T) {
	dir := t.TempDir()
	_, entry := saveOneEntry(t, dir)
	if _, err := os.Stat(entry + checksumSuffix); err != nil {
		t.Errorf("missing checksum sidecar: %v", err)
	}
	all, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range all {
		if strings.Contains(f.Name(), ".tmp") {
			t.Errorf("leftover temp file %s", f.Name())
		}
	}
}

// The regression the warm-start satellite demands: a hand-corrupted entry is
// quarantined while the healthy entries load, and the corrupt counter
// reflects it.
func TestLoadCacheQuarantinesHandCorruptedEntry(t *testing.T) {
	dir := t.TempDir()
	_, entry := saveOneEntry(t, dir)

	// Flip bytes in the middle of the payload without touching the sidecar:
	// the checksum catches it even though the JSON may still decode.
	data, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	mid := len(data) / 2
	data[mid] ^= 0xff
	data[mid+1] ^= 0xff
	if err := os.WriteFile(entry, data, 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := New(Options{})
	n, err := e2.LoadCache(dir)
	if err != nil {
		t.Fatalf("LoadCache: %v", err)
	}
	if n != 0 {
		t.Errorf("loaded %d entries, want 0 (corrupt)", n)
	}
	if got := e2.Stats().CacheCorruptEntries; got != 1 {
		t.Errorf("CacheCorruptEntries = %d, want 1", got)
	}

	// A truncated entry (torn write) is also quarantined.
	if err := os.WriteFile(entry, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	e3 := New(Options{})
	if n, err := e3.LoadCache(dir); err != nil || n != 0 {
		t.Fatalf("truncated entry: loaded=%d err=%v, want 0,nil", n, err)
	}
	if got := e3.Stats().CacheCorruptEntries; got != 1 {
		t.Errorf("CacheCorruptEntries = %d, want 1", got)
	}
}

// Healthy entries still load when a corrupt neighbor is quarantined.
func TestLoadCacheLoadsHealthyDespiteCorruptNeighbor(t *testing.T) {
	dir := t.TempDir()
	saveOneEntry(t, dir)
	if err := os.WriteFile(filepath.Join(dir, "zz-corrupt.json"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := New(Options{})
	n, err := e.LoadCache(dir)
	if err != nil {
		t.Fatalf("LoadCache: %v", err)
	}
	if n != 1 {
		t.Errorf("loaded %d entries, want 1", n)
	}
	if got := e.Stats().CacheCorruptEntries; got != 1 {
		t.Errorf("CacheCorruptEntries = %d, want 1", got)
	}
}

// An injected corrupt fault on the load path is caught by the checksum and
// quarantined — the cache never serves mangled bytes.
func TestLoadCacheQuarantinesInjectedCorruption(t *testing.T) {
	dir := t.TempDir()
	saveOneEntry(t, dir)

	plan := faults.NewPlan(11, faults.Rule{Point: "engine.cache.load", Mode: faults.ModeCorrupt, Every: 1})
	if err := faults.Activate(plan); err != nil {
		t.Fatal(err)
	}
	defer faults.Deactivate()
	defer faults.ResetInjected()

	e := New(Options{})
	n, err := e.LoadCache(dir)
	if err != nil {
		t.Fatalf("LoadCache: %v", err)
	}
	if n != 0 {
		t.Errorf("loaded %d entries under injected corruption, want 0", n)
	}
	if got := e.Stats().CacheCorruptEntries; got != 1 {
		t.Errorf("CacheCorruptEntries = %d, want 1", got)
	}
	if faults.Injected()["engine.cache.load"] == 0 {
		t.Error("fault counter did not record the injection")
	}
}
