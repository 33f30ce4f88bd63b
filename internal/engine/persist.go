package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"

	"igpucomm/internal/faults"
	"igpucomm/internal/framework"
)

// Cache persistence: each cached characterization is written as one file,
// named by its cache key, in the exact format framework.SaveCharacterization
// defines — so the files are interchangeable with `advisor advise -char` files
// and inherit the persist format's versioning (a stale cache fails loudly at
// load instead of silently advising from old physics).
//
// Crash safety: every entry is written to a temp file in the same directory
// and atomically renamed into place, so a crash mid-write never leaves a
// half-written entry under the final name. Each entry also gets a
// <key>.json.sha256 sidecar carrying the payload's checksum; at warm start a
// missing-checksum, checksum-mismatched or undecodable entry is quarantined
// (skipped, logged, counted in Stats.CacheCorruptEntries) instead of
// aborting the load.

// checksumSuffix names the per-entry checksum sidecar files.
const checksumSuffix = ".sha256"

// SaveCache writes every live characterization entry into dir (created if
// missing) as <key>.json plus a <key>.json.sha256 checksum sidecar, each via
// an atomic temp-file + rename. It returns the number of entries written.
func (e *Engine) SaveCache(dir string) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("engine: save cache: %w", err)
	}
	entries := e.chars.dump()
	n := 0
	for key, char := range entries {
		if err := faults.Fire(faultCacheStore); err != nil {
			return n, fmt.Errorf("engine: save cache entry %s: %w", key, err)
		}
		var buf bytes.Buffer
		if err := framework.SaveCharacterization(&buf, char); err != nil {
			return n, fmt.Errorf("engine: save cache entry %s: %w", key, err)
		}
		payload := buf.Bytes()
		if err := writeAtomic(filepath.Join(dir, key+".json"), payload); err != nil {
			return n, fmt.Errorf("engine: save cache entry %s: %w", key, err)
		}
		sum := sha256.Sum256(payload)
		sumLine := []byte(hex.EncodeToString(sum[:]) + "\n")
		if err := writeAtomic(filepath.Join(dir, key+".json"+checksumSuffix), sumLine); err != nil {
			return n, fmt.Errorf("engine: save cache entry %s: %w", key, err)
		}
		n++
	}
	return n, nil
}

// writeAtomic writes data to path via a same-directory temp file, fsync and
// rename, so readers only ever observe absent or complete files.
func writeAtomic(path string, data []byte) error {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, "."+base+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if serr := f.Sync(); err == nil {
		err = serr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// LoadCache warm-starts the characterization cache from a directory written
// by SaveCache. Every *.json file is checked against its checksum sidecar
// (when present) and validated through framework.LoadCharacterization; a
// corrupt entry — torn bytes, checksum mismatch, undecodable or
// version-mismatched payload — is quarantined: skipped, logged and counted
// in Stats.CacheCorruptEntries. All healthy entries still load. It returns
// the number of entries loaded; the error reports directory-level failures
// only.
func (e *Engine) LoadCache(dir string) (int, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return 0, fmt.Errorf("engine: load cache: %w", err)
	}
	n := 0
	for _, name := range names {
		char, err := loadEntry(name)
		if err != nil {
			e.cacheCorrupt.Add(1)
			slog.Warn("engine: quarantined corrupt cache entry",
				"entry", filepath.Base(name), "err", err)
			continue
		}
		key := strings.TrimSuffix(filepath.Base(name), ".json")
		e.chars.put(key, char)
		n++
	}
	return n, nil
}

// loadEntry reads, checksums and decodes one cache entry file.
func loadEntry(name string) (framework.Characterization, error) {
	data, err := os.ReadFile(name)
	if err != nil {
		return framework.Characterization{}, err
	}
	data, err = faults.FireData(faultCacheLoad, data)
	if err != nil {
		return framework.Characterization{}, err
	}
	if sumData, serr := os.ReadFile(name + checksumSuffix); serr == nil {
		want := strings.TrimSpace(string(sumData))
		got := sha256.Sum256(data)
		if hex.EncodeToString(got[:]) != want {
			return framework.Characterization{}, fmt.Errorf("checksum mismatch")
		}
	}
	return framework.LoadCharacterization(bytes.NewReader(data))
}
