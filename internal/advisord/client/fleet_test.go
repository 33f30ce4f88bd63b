package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"igpucomm/internal/advisord"
	"igpucomm/internal/devices"
	"igpucomm/internal/fleet"
)

// fakeShard is a stub advisord shard: answers /v1/advise with its own ID as
// every result's Zone (so tests see who served what) and /v1/fleet/topology
// with an installed topology document.
type fakeShard struct {
	id string

	mu       sync.Mutex
	served   []advisord.AdviseRequest
	fail     int // answer this many advises with 503 first
	topology *fleet.Topology
	degraded bool
}

func (f *fakeShard) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/advise", func(w http.ResponseWriter, r *http.Request) {
		var body advisord.AdviseBody
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.fail > 0 {
			f.fail--
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{"error": "injected outage"})
			return
		}
		f.served = append(f.served, body.Requests...)
		results := make([]advisord.AdviseResult, len(body.Requests))
		for i := range results {
			results[i] = advisord.AdviseResult{Zone: f.id, Degraded: f.degraded}
		}
		json.NewEncoder(w).Encode(advisord.AdviseResponse{Results: results})
	})
	mux.HandleFunc("/v1/fleet/topology", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		topo := f.topology
		f.mu.Unlock()
		if topo == nil {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(topo)
	})
	return mux
}

func (f *fakeShard) servedCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.served)
}

// startShards brings up n fake shards and returns them plus the membership.
func startShards(t *testing.T, ids ...string) ([]*fakeShard, []fleet.Shard) {
	t.Helper()
	fakes := make([]*fakeShard, len(ids))
	shards := make([]fleet.Shard, len(ids))
	for i, id := range ids {
		fakes[i] = &fakeShard{id: id}
		ts := httptest.NewServer(fakes[i].handler())
		t.Cleanup(ts.Close)
		shards[i] = fleet.Shard{ID: id, URL: ts.URL}
	}
	return fakes, shards
}

func fleetClient(t *testing.T, rt *fleet.Router, opts ...func(*Options)) *Client {
	t.Helper()
	sleep := &recordingSleep{}
	o := Options{Fleet: rt, Sleep: sleep.sleep, RefreshMinInterval: time.Nanosecond}
	for _, f := range opts {
		f(&o)
	}
	return New(o)
}

func fourDeviceBody(t *testing.T) advisord.AdviseBody {
	t.Helper()
	var body advisord.AdviseBody
	for _, cfg := range devices.All() {
		body.Requests = append(body.Requests,
			advisord.AdviseRequest{Device: cfg.Name, App: "shwfs", Current: "sc"})
	}
	if len(body.Requests) < 2 {
		t.Fatal("need at least two catalog devices")
	}
	return body
}

// Healthy fleet: every question lands on the shard owning its device, and
// results come back in request order.
func TestFleetRoutingSendsEachKeyToItsOwner(t *testing.T) {
	fakes, shards := startShards(t, "shard-a", "shard-b", "shard-c")
	rt, err := fleet.NewRouter(fleet.RouterOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	c := fleetClient(t, rt)
	body := fourDeviceBody(t)

	resp, err := c.Advise(context.Background(), body)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(body.Requests) {
		t.Fatalf("%d results for %d requests", len(resp.Results), len(body.Requests))
	}
	for i, ar := range body.Requests {
		owner := rt.Owner(ar.Device)
		if resp.Results[i].Zone != owner {
			t.Fatalf("request %d (%s) answered by %s, owner is %s",
				i, ar.Device, resp.Results[i].Zone, owner)
		}
	}
	total := 0
	for _, f := range fakes {
		total += f.servedCount()
	}
	if total != len(body.Requests) {
		t.Fatalf("shards served %d questions, want %d", total, len(body.Requests))
	}
	if st := rt.Stats(); st.Reroutes != 0 || st.Fallbacks != 0 {
		t.Fatalf("healthy fleet counted reroutes/fallbacks: %+v", st)
	}
}

// Single-shard ring (satellite edge case): everything routes to the only
// shard, retries included.
func TestFleetSingleShardRing(t *testing.T) {
	fakes, shards := startShards(t, "solo")
	fakes[0].mu.Lock()
	fakes[0].fail = 1 // first attempt 503s; the retry must return to solo
	fakes[0].mu.Unlock()
	rt, err := fleet.NewRouter(fleet.RouterOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	c := fleetClient(t, rt)

	resp, err := c.Advise(context.Background(), adviseBody())
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Zone != "solo" {
		t.Fatalf("results = %+v", resp.Results)
	}
	// Same shard on both attempts: no reroute was possible or counted.
	if st := rt.Stats(); st.Reroutes != 0 {
		t.Fatalf("single-shard ring counted %d reroutes", st.Reroutes)
	}
}

// All shards unhealthy (satellite edge case): the any-replica fallback still
// finds the one replica that answers — with degraded advice — instead of
// erasing the request.
func TestFleetAllUnhealthyFallsBackToAnyReplica(t *testing.T) {
	fakes, shards := startShards(t, "shard-a", "shard-b", "shard-c")
	rt, err := fleet.NewRouter(fleet.RouterOptions{
		Shards:           shards,
		FailureThreshold: 1,
		Cooldown:         time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every shard marked down; only shard-b actually answers, degraded.
	for _, id := range []string{"shard-a", "shard-b", "shard-c"} {
		rt.ReportFailure(id)
	}
	for _, f := range fakes {
		f.mu.Lock()
		if f.id == "shard-b" {
			f.degraded = true
		} else {
			f.fail = 1 << 20 // never answers advise
		}
		f.mu.Unlock()
	}
	c := fleetClient(t, rt, func(o *Options) { o.MaxAttempts = 6 })

	resp, err := c.Advise(context.Background(), adviseBody())
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Zone != "shard-b" || !resp.Results[0].Degraded {
		t.Fatalf("results = %+v, want degraded answer from shard-b", resp.Results)
	}
	if st := rt.Stats(); st.Fallbacks == 0 {
		t.Fatal("any-replica fallback not counted")
	}
}

// Topology refresh mid-retry (satellite edge case): the original shard dies
// after publishing a v2 topology naming its replacement; the retry path
// refreshes and the next attempt lands on the replacement.
func TestFleetTopologyRefreshMidRetry(t *testing.T) {
	fakes, shards := startShards(t, "shard-a", "shard-b")
	// Initial client membership: only shard-a. Its topology document
	// already announces v2 with both shards.
	fakes[0].mu.Lock()
	fakes[0].fail = 1 << 20 // shard-a sheds everything
	fakes[0].topology = &fleet.Topology{Version: 2, Self: "shard-a", Shards: shards}
	fakes[0].mu.Unlock()
	rt, err := fleet.NewRouter(fleet.RouterOptions{Shards: shards[:1]})
	if err != nil {
		t.Fatal(err)
	}
	c := fleetClient(t, rt, func(o *Options) { o.MaxAttempts = 4 })

	resp, err := c.Advise(context.Background(), adviseBody())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Zone != "shard-b" {
		t.Fatalf("answered by %s, want the shard learned mid-retry", resp.Results[0].Zone)
	}
	if rt.Version() != 2 || len(rt.Shards()) != 2 {
		t.Fatalf("topology not refreshed: version=%d shards=%v", rt.Version(), rt.Shards())
	}
	if st := rt.Stats(); st.TopologyRefreshes == 0 || st.Reroutes == 0 {
		t.Fatalf("refresh/reroute not counted: %+v", st)
	}
}

// Ring determinism across restarts (satellite edge case): a freshly built
// router — a simulated process restart — agrees with the original on every
// device's owner, so cache locality survives restarts.
func TestFleetRoutingDeterministicAcrossRestarts(t *testing.T) {
	_, shards := startShards(t, "shard-a", "shard-b", "shard-c")
	rt1, err := fleet.NewRouter(fleet.RouterOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	// The "restarted" process sees the same membership in a different
	// order.
	perm := []fleet.Shard{shards[2], shards[0], shards[1]}
	rt2, err := fleet.NewRouter(fleet.RouterOptions{Shards: perm})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"no-such-board"} // unknown devices route deterministically too
	for _, cfg := range devices.All() {
		names = append(names, cfg.Name)
	}
	for _, name := range names {
		if rt1.Owner(name) != rt2.Owner(name) {
			t.Fatalf("owner for %s diverged across restarts: %s vs %s",
				name, rt1.Owner(name), rt2.Owner(name))
		}
	}
}
