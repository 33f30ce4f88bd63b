package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"igpucomm/internal/advisord"
	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/devices"
	"igpucomm/internal/engine"
	"igpucomm/internal/fleet"
	"igpucomm/internal/framework"
	"igpucomm/internal/microbench"
)

// liveShard is one real advisord shard whose data plane records the device
// of every question it receives.
type liveShard struct {
	id string
	st *fleet.State
	ts *httptest.Server

	mu       sync.Mutex
	received []string
}

func startLiveShards(t *testing.T, ids ...string) ([]*liveShard, []fleet.Shard) {
	t.Helper()
	shards := make([]*liveShard, len(ids))
	members := make([]fleet.Shard, len(ids))
	for i, id := range ids {
		st, err := fleet.NewState(id, []fleet.Shard{{ID: id, URL: "http://placeholder.invalid"}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		srv := advisord.New(engine.New(engine.Options{Workers: 2}), advisord.Options{
			Params: microbench.TestParams(),
			Scale:  catalog.Micro,
			Logger: slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError})),
			Fleet:  st,
		})
		sh := &liveShard{id: id, st: st}
		h := srv.Handler()
		sh.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/advise" {
				raw, err := io.ReadAll(r.Body)
				if err != nil {
					t.Error(err)
				}
				var body advisord.AdviseBody
				if err := json.Unmarshal(raw, &body); err != nil {
					t.Error(err)
				}
				sh.mu.Lock()
				for _, ar := range body.Requests {
					sh.received = append(sh.received, ar.Device)
				}
				sh.mu.Unlock()
				r.Body = io.NopCloser(bytes.NewReader(raw))
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(sh.ts.Close)
		shards[i] = sh
		members[i] = fleet.Shard{ID: id, URL: sh.ts.URL}
	}
	for _, sh := range shards {
		if err := sh.st.SetShards(members); err != nil {
			t.Fatal(err)
		}
	}
	return shards, members
}

// exportedPlatforms returns the platforms of the entries sh exports for
// owner.
func exportedPlatforms(t *testing.T, sh *liveShard, owner string) map[string]bool {
	t.Helper()
	resp, err := http.Get(sh.ts.URL + "/v1/cache/export?owner=" + owner)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]bool{}
	if _, _, err := fleet.ReadExport(bufio.NewReader(resp.Body), func(_ string, char framework.Characterization) error {
		out[char.Platform] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// For every catalog device, three views of ownership name the same shard:
// the shard the fleet client sends the device's question to, the shard whose
// ?owner= export carries the device's characterization, and the one shard
// where serving the device counts no received reroute.
func TestFleetOwnershipAgreesAcrossClientExportAndServer(t *testing.T) {
	shards, members := startLiveShards(t, "shard-a", "shard-b", "shard-c")
	rt, err := fleet.NewRouter(fleet.RouterOptions{Shards: members})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Options{Fleet: rt})
	for _, cfg := range devices.All() {
		body := advisord.AdviseBody{Requests: []advisord.AdviseRequest{{Device: cfg.Name, App: "shwfs", Current: "sc"}}}
		resp, err := c.Advise(context.Background(), body)
		if err != nil {
			t.Fatal(err)
		}
		if res := resp.Results[0]; res.Recommendation == nil || res.Degraded || res.Error != "" {
			t.Fatalf("%s: result %+v, want measured advice", cfg.Name, res)
		}
	}

	for _, cfg := range devices.All() {
		var chosen []string
		for _, sh := range shards {
			sh.mu.Lock()
			for _, d := range sh.received {
				if d == cfg.Name {
					chosen = append(chosen, sh.id)
				}
			}
			sh.mu.Unlock()
		}
		if len(chosen) != 1 {
			t.Fatalf("%s: client sent the question to %v, want exactly one shard", cfg.Name, chosen)
		}
		owner := chosen[0]

		for _, sh := range shards {
			before := sh.st.Stats().ReroutesReceived
			resp, err := New(Options{BaseURL: sh.ts.URL}).Advise(context.Background(),
				advisord.AdviseBody{Requests: []advisord.AdviseRequest{{Device: cfg.Name, App: "shwfs", Current: "sc"}}})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Results[0].Recommendation == nil {
				t.Fatalf("%s on %s: no advice: %+v", cfg.Name, sh.id, resp.Results[0])
			}
			rerouted := sh.st.Stats().ReroutesReceived != before
			if rerouted != (sh.id != owner) {
				t.Errorf("%s served on %s: reroute counted = %t, client chose %s", cfg.Name, sh.id, rerouted, owner)
			}
		}
		// Every shard now holds the device's characterization; only the
		// owner's share of each export carries it.
		for _, exporter := range shards {
			for _, sh := range shards {
				if got, want := exportedPlatforms(t, exporter, sh.id)[cfg.Name], sh.id == owner; got != want {
					t.Errorf("%s: %s's export for owner=%s carries it = %t, want %t (client chose %s)",
						cfg.Name, exporter.id, sh.id, got, want, owner)
				}
			}
		}
	}
}
