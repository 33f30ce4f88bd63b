package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"

	"igpucomm/internal/framework"
)

// Warm handoff: cache entries move between peers as a newline-delimited JSON
// stream on GET /v1/cache/export. Each line carries one entry — the
// engine's content-hash cache key plus the characterization in the exact
// versioned persist format framework.SaveCharacterization defines, so a
// pulled entry inherits the same stale-format protection a warm-start file
// has. A shard joining (or rebalancing after a membership change) pulls the
// entries it now owns — those whose characterized platform the ring places
// on it — from every peer before taking traffic, so its first requests hit
// a warm cache instead of stampeding cold characterizations.

// ExportLine is one entry on the handoff wire: the cache key and the
// characterization payload in the persist format.
type ExportLine struct {
	// Key is the engine's content-hash cache key.
	Key string `json:"key"`
	// Entry is the framework persist-format characterization document.
	Entry json.RawMessage `json:"entry"`
}

// WriteExport streams the entries whose characterization passes include
// (nil: all) to w as NDJSON, in sorted key order so streams are
// deterministic. It returns the number of entries written.
func WriteExport(w io.Writer, entries map[string]framework.Characterization, include func(framework.Characterization) bool) (int, error) {
	keys := make([]string, 0, len(entries))
	for key, char := range entries {
		if include == nil || include(char) {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	bw := bufio.NewWriter(w)
	n := 0
	for _, key := range keys {
		var payload bytes.Buffer
		if err := framework.SaveCharacterization(&payload, entries[key]); err != nil {
			return n, fmt.Errorf("fleet: export %s: %w", key, err)
		}
		// The persist format is indented; compact it so the line stays a
		// line.
		var compact bytes.Buffer
		if err := json.Compact(&compact, payload.Bytes()); err != nil {
			return n, fmt.Errorf("fleet: export %s: %w", key, err)
		}
		line, err := json.Marshal(ExportLine{Key: key, Entry: compact.Bytes()})
		if err != nil {
			return n, fmt.Errorf("fleet: export %s: %w", key, err)
		}
		if _, err := bw.Write(append(line, '\n')); err != nil {
			return n, fmt.Errorf("fleet: export: %w", err)
		}
		n++
	}
	return n, bw.Flush()
}

// ReadExport decodes an export stream, calling fn for every valid entry.
// Each entry's payload is validated through framework.LoadCharacterization;
// a line that fails to decode or validate — malformed JSON, an empty key, a
// corrupt or version-mismatched characterization — is quarantined: skipped
// and counted, never delivered to fn. One bad line must not discard the
// good entries around it (a partial pull beats a cold cache), and a
// malicious or buggy peer must never panic its puller. Only transport-level
// failures (the reader erroring mid-stream) and fn's own errors abort the
// read. It returns the entries delivered and the lines quarantined.
func ReadExport(r io.Reader, fn func(key string, char framework.Characterization) error) (n, quarantined int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var line ExportLine
		if err := json.Unmarshal(raw, &line); err != nil {
			quarantined++
			continue
		}
		if line.Key == "" {
			quarantined++
			continue
		}
		char, err := framework.LoadCharacterization(bytes.NewReader(line.Entry))
		if err != nil {
			quarantined++
			continue
		}
		if err := fn(line.Key, char); err != nil {
			return n, quarantined, err
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return n, quarantined, fmt.Errorf("fleet: import: %w", err)
	}
	return n, quarantined, nil
}

// PullReport summarizes one warm-handoff pull.
type PullReport struct {
	// Pulled is the number of entries installed.
	Pulled int `json:"pulled"`
	// Quarantined is the number of corrupt export lines skipped.
	Quarantined int `json:"quarantined,omitempty"`
	// Peers is the number of peers contacted.
	Peers int `json:"peers"`
	// PeerErrors lists peers that could not be pulled from, with their
	// errors. A partial pull is still a pull: the joining shard serves
	// what it got and characterizes the rest cold.
	PeerErrors []string `json:"peer_errors,omitempty"`
}

// Pull fetches the cache entries this replica owns from every peer's
// /v1/cache/export stream and installs them via put. Peer failures are
// collected, not fatal — a dead peer must not block a join — so the error
// return is reserved for a nil state or client.
func Pull(ctx context.Context, st *State, hc *http.Client, put func(key string, char framework.Characterization)) (PullReport, error) {
	if st == nil {
		return PullReport{}, fmt.Errorf("fleet: pull without fleet state")
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	var rep PullReport
	for _, peer := range st.Peers() {
		rep.Peers++
		n, quarantined, err := pullPeer(ctx, st, hc, peer, put)
		rep.Pulled += n
		rep.Quarantined += quarantined
		if err != nil {
			rep.PeerErrors = append(rep.PeerErrors, fmt.Sprintf("%s: %v", peer.ID, err))
		}
	}
	st.CountImported(rep.Pulled)
	return rep, nil
}

// pullPeer streams one peer's export of the keys this replica owns.
func pullPeer(ctx context.Context, st *State, hc *http.Client, peer Shard, put func(string, framework.Characterization)) (int, int, error) {
	u := peer.URL + "/v1/cache/export?owner=" + url.QueryEscape(st.Self())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("export returned %d", resp.StatusCode)
	}
	return ReadExport(resp.Body, func(key string, char framework.Characterization) error {
		put(key, char)
		return nil
	})
}
