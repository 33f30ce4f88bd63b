package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"strings"

	"igpucomm/internal/faults"
	"igpucomm/internal/framework"
)

// Cache persistence: each characterization is written as one file when it
// enters the memo (computed, or inserted by CachePut) and never rewritten
// while the memo holds it. The file is named by its cache key and written in
// the exact format framework.SaveCharacterization defines — so the files are
// interchangeable with `advisor advise -char` files and inherit the persist
// format's versioning (a stale cache fails loudly at load instead of
// silently advising from old physics).
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

// store writes one characterization entering the memo into the cache
// directory as <key>.json plus a <key>.json.sha256 checksum sidecar, each via
// an atomic temp-file + rename (the directory is created if missing). A
// failed store — error or panic — is logged and dropped: the entry still
// serves from memory, no other entry is affected, and nothing retries it.
func (e *Engine) store(key string, char framework.Characterization) {
	if e.cacheDir == "" {
		return
	}
	if err := writeEntry(e.cacheDir, key, char); err != nil {
		slog.Warn("engine: cache entry not stored", "entry", key, "err", err)
	}
}

// writeEntry is one store: the payload, then its checksum sidecar. A panic
// (the fault point's panic mode) comes back as a *PanicError.
func writeEntry(dir, key string, char framework.Characterization) (err error) {
	defer func() {
		if perr := recovered(recover()); perr != nil {
			err = perr
		}
	}()
	if err := faults.Fire(faultCacheStore); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := framework.SaveCharacterization(&buf, char); err != nil {
		return err
	}
	payload := buf.Bytes()
	if err := writeAtomic(filepath.Join(dir, key+".json"), payload); err != nil {
		return err
	}
	sum := sha256.Sum256(payload)
	return writeAtomic(filepath.Join(dir, key+".json"+checksumSuffix), []byte(hex.EncodeToString(sum[:])+"\n"))
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

// LoadCache warm-starts the characterization memo from the cache directory
// (Options.CacheDir); a missing directory, or none configured, loads
// nothing. Loaded entries are already on disk, so none is stored again.
// Every *.json file is checked against its checksum sidecar (when present)
// and validated through framework.LoadCharacterization; a
// corrupt entry — torn bytes, checksum mismatch, undecodable or
// version-mismatched payload — is quarantined: skipped, logged and counted
// in Stats.CacheCorruptEntries. All healthy entries still load. It returns
// the number of entries loaded; the error reports directory-level failures
// only.
func (e *Engine) LoadCache() (int, error) {
	if e.cacheDir == "" {
		return 0, nil
	}
	files, err := os.ReadDir(e.cacheDir)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("engine: load cache: %w", err)
	}
	n := 0
	for _, f := range files {
		key, ok := strings.CutSuffix(f.Name(), ".json")
		if !ok {
			continue
		}
		char, err := loadEntry(filepath.Join(e.cacheDir, f.Name()))
		if err != nil {
			e.cacheCorrupt.Add(1)
			slog.Warn("engine: quarantined corrupt cache entry", "entry", f.Name(), "err", err)
			continue
		}
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
