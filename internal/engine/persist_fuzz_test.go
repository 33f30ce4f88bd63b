package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLoadCache feeds arbitrary bytes — and mutations of a cache entry the
// engine's store wrote — to Engine.LoadCache as one entry of a warm-start
// directory, with a matching checksum sidecar and without one. The contract
// under fuzz: no entry panics the load or fails it as a whole; the entry is
// either loaded, and then survives store (CachePut into a second engine's
// directory) → LoadCache unchanged, or quarantined and counted in
// Stats().CacheCorruptEntries.
func FuzzLoadCache(f *testing.F) {
	_, entry := saveOneEntry(f, f.TempDir())
	saved, err := os.ReadFile(entry)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(saved, true)
	f.Add(saved, false)
	f.Add([]byte("{nope"), true)
	f.Add([]byte(`{"format_version":999,"characterization":{}}`), false)
	f.Add([]byte(`{"format_version":1,"characterization":null}`), true)

	f.Fuzz(func(t *testing.T, data []byte, withSum bool) {
		dir := t.TempDir()
		const key = "fuzz"
		name := filepath.Join(dir, key+".json")
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if withSum {
			sum := sha256.Sum256(data)
			if err := os.WriteFile(name+checksumSuffix, []byte(hex.EncodeToString(sum[:])+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		e := New(Options{Workers: 1, CacheDir: dir})
		n, err := e.LoadCache()
		if err != nil {
			t.Fatalf("one entry failed the whole load: %v", err)
		}
		corrupt := e.Stats().CacheCorruptEntries
		if n == 0 {
			if corrupt != 1 {
				t.Fatalf("entry neither loaded nor quarantined: %d corrupt entries counted", corrupt)
			}
			return
		}
		if n != 1 || corrupt != 0 {
			t.Fatalf("LoadCache = %d entries, %d corrupt; want 1 loaded", n, corrupt)
		}
		loaded := e.chars.dump()
		again := t.TempDir()
		stored := New(Options{Workers: 1, CacheDir: again})
		for key, char := range loaded {
			stored.CachePut(key, char)
		}
		e2 := New(Options{Workers: 1, CacheDir: again})
		if n, err := e2.LoadCache(); err != nil || n != 1 || e2.Stats().CacheCorruptEntries != 0 {
			t.Fatalf("saved entry does not reload: %d loaded, %v, %d corrupt", n, err, e2.Stats().CacheCorruptEntries)
		}
		if reloaded := e2.chars.dump(); !reflect.DeepEqual(reloaded, loaded) {
			t.Fatalf("round trip changed the entry:\nloaded:   %+v\nreloaded: %+v", loaded, reloaded)
		}
	})
}
