package engine

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"igpucomm/internal/devices"
	"igpucomm/internal/faults"
	"igpucomm/internal/framework"
	"igpucomm/internal/microbench"
	"igpucomm/internal/perfmodel"
	"igpucomm/internal/units"
)

// saveOneEntry characterizes one device on an engine storing into dir,
// returning the engine and the entry's path.
func saveOneEntry(t testing.TB, dir string) (*Engine, string) {
	t.Helper()
	cfg, err := devices.ByName(devices.TX2Name)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 2, CacheDir: dir})
	if _, err := e.Characterize(context.Background(), cfg, microbench.TestParams()); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(names) != 1 {
		t.Fatalf("cache files = %v, %v", names, err)
	}
	return e, names[0]
}

// A store must leave no temp droppings and must pair every entry with a
// checksum sidecar.
func TestStoreWritesChecksummedEntries(t *testing.T) {
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

// synthChar is a characterization that passes the persist loader's checks.
var synthChar = framework.Characterization{
	Platform:            "synthetic",
	Thresholds:          perfmodel.Thresholds{CPUCache: 0.10, GPUCacheLow: 0.10, GPUCacheHigh: 0.30},
	PeakGPUThroughput:   100 * units.GBps,
	PinnedGPUThroughput: 10 * units.GBps,
}

// storedKeys lists the cache keys with an entry file in dir, sorted.
func storedKeys(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(names))
	for i, name := range names {
		keys[i] = strings.TrimSuffix(filepath.Base(name), ".json")
	}
	return keys
}

// Each store succeeds or fails on its own: with every second store failing,
// one fixed sequence of CachePut keys leaves the same files on disk on every
// run — the keys whose store came first in each pair — and every entry still
// serves from memory.
func TestStoreFailuresAreIndependent(t *testing.T) {
	var keys, want []string
	for i := 0; i < 12; i++ {
		keys = append(keys, fmt.Sprintf("k%02d", i))
		if i%2 == 0 {
			want = append(want, keys[i])
		}
	}
	defer faults.ResetInjected()
	for run := 0; run < 4; run++ {
		plan := faults.NewPlan(7, faults.Rule{Point: "engine.cache.store", Mode: faults.ModeError, Every: 2})
		if err := faults.Activate(plan); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		e := New(Options{CacheDir: dir})
		for _, key := range keys {
			e.CachePut(key, synthChar)
		}
		faults.Deactivate()
		if got := storedKeys(t, dir); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d stored %v, want %v", run, got, want)
		}
		if n := e.Stats().Characterizations.Entries; n != len(keys) {
			t.Fatalf("run %d: memo holds %d entries, want %d", run, n, len(keys))
		}
	}
}

// A store that panics fails neither the characterization nor the CachePut
// that triggered it: both entries serve from memory, and nothing reaches
// disk.
func TestStorePanicFailsNoAnswer(t *testing.T) {
	plan := faults.NewPlan(7, faults.Rule{Point: "engine.cache.store", Mode: faults.ModePanic, Every: 1})
	if err := faults.Activate(plan); err != nil {
		t.Fatal(err)
	}
	defer faults.Deactivate()
	defer faults.ResetInjected()
	dir := t.TempDir()
	e := New(Options{Workers: 2, CacheDir: dir})
	if _, err := e.Characterize(context.Background(), devices.TX2(), microbench.TestParams()); err != nil {
		t.Fatalf("characterization failed with its store: %v", err)
	}
	e.CachePut("k", synthChar)
	if n := e.Stats().Characterizations.Entries; n != 2 {
		t.Errorf("memo holds %d entries, want 2", n)
	}
	if got := storedKeys(t, dir); len(got) != 0 {
		t.Errorf("stored %v under a panicking store", got)
	}
	if faults.Injected()["engine.cache.store"] != 2 {
		t.Errorf("store panics injected = %d, want 2", faults.Injected()["engine.cache.store"])
	}
}

// Without a configured directory nothing is stored and a warm start loads
// nothing; a configured directory that does not exist yet loads nothing
// either, and the first store creates it. The directory's name is a path,
// not a pattern: brackets in it change nothing.
func TestCacheDirOptional(t *testing.T) {
	e := New(Options{})
	e.CachePut("k", synthChar)
	if n, err := e.LoadCache(); err != nil || n != 0 {
		t.Fatalf("LoadCache without a directory = %d, %v", n, err)
	}

	dir := filepath.Join(t.TempDir(), "missing[1]")
	e = New(Options{CacheDir: dir})
	if n, err := e.LoadCache(); err != nil || n != 0 {
		t.Fatalf("LoadCache of a missing directory = %d, %v", n, err)
	}
	e.CachePut("k", synthChar)
	if n, err := New(Options{CacheDir: dir}).LoadCache(); err != nil || n != 1 {
		t.Errorf("LoadCache after one store = %d, %v; want 1", n, err)
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

	e2 := New(Options{CacheDir: dir})
	n, err := e2.LoadCache()
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
	e3 := New(Options{CacheDir: dir})
	if n, err := e3.LoadCache(); err != nil || n != 0 {
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
	e := New(Options{CacheDir: dir})
	n, err := e.LoadCache()
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

	e := New(Options{CacheDir: dir})
	n, err := e.LoadCache()
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
