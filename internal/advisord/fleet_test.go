package advisord

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/devices"
	"igpucomm/internal/engine"
	"igpucomm/internal/fleet"
	"igpucomm/internal/framework"
	"igpucomm/internal/microbench"
	"igpucomm/internal/perfmodel"
	"igpucomm/internal/units"
)

// synthCharForDevice builds a characterization that survives the persist
// round trip the export stream uses.
func synthCharForDevice(t *testing.T, platform string) framework.Characterization {
	t.Helper()
	return framework.Characterization{
		Platform:            platform,
		Thresholds:          perfmodel.Thresholds{CPUCache: 0.10, GPUCacheLow: 0.10, GPUCacheHigh: 0.30},
		PeakGPUThroughput:   100 * units.GBps,
		PinnedGPUThroughput: 10 * units.GBps,
		ZCSCMaxSpeedup:      10,
		SCZCMaxSpeedup:      2.5,
	}
}

// seedSynthEntries puts n synthetic entries, each for its own platform,
// under content-hash-shaped keys and returns the platforms.
func seedSynthEntries(t *testing.T, eng *engine.Engine, n int) []string {
	t.Helper()
	platforms := make([]string, n)
	for i := range platforms {
		sum := sha256.Sum256([]byte(fmt.Sprintf("advisord-fleet-%d", i)))
		platforms[i] = fmt.Sprintf("board-%d", i)
		eng.CachePut(hex.EncodeToString(sum[:]), synthCharForDevice(t, platforms[i]))
	}
	return platforms
}

// fleetTestServer builds one shard's server (data plane + admin plane) over
// a fresh engine.
func fleetTestServer(t *testing.T, self string, shards []fleet.Shard) (*Server, *fleet.State, *engine.Engine, *httptest.Server, *httptest.Server) {
	t.Helper()
	st, err := fleet.NewState(self, shards, 64)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Workers: 2})
	srv := New(eng, Options{
		Params: microbench.TestParams(),
		Scale:  catalog.Quick,
		Logger: testLogger(),
		Fleet:  st,
	})
	data := httptest.NewServer(srv.Handler())
	t.Cleanup(data.Close)
	admin := httptest.NewServer(srv.AdminHandler())
	t.Cleanup(admin.Close)
	return srv, st, eng, data, admin
}

func postJSON(t *testing.T, url string, body interface{}, out interface{}) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestFleetTopologyEndpoint(t *testing.T) {
	shards := []fleet.Shard{
		{ID: "shard-a", URL: "http://a.test"},
		{ID: "shard-b", URL: "http://b.test"},
	}
	_, _, _, data, _ := fleetTestServer(t, "shard-a", shards)

	var topo fleet.Topology
	resp := getJSON(t, data.URL+"/v1/fleet/topology", &topo)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topology status %d", resp.StatusCode)
	}
	if topo.Version != 1 || topo.Self != "shard-a" || len(topo.Shards) != 2 {
		t.Fatalf("topology = %+v", topo)
	}
	for _, sh := range topo.Shards {
		if sh.ID == "shard-a" && sh.State != fleet.StateHealthy {
			t.Fatalf("self state = %q, want healthy", sh.State)
		}
		if sh.ID == "shard-b" && sh.State != fleet.StateUnknown {
			t.Fatalf("peer state = %q, want unknown", sh.State)
		}
	}
}

// The drain gate: /v1 data plane sheds with retryable 503, while topology
// and export stay up — the protocol a warm drain depends on.
func TestFleetDrainGate(t *testing.T) {
	shards := []fleet.Shard{{ID: "solo", URL: "http://solo.test"}}
	_, st, eng, data, admin := fleetTestServer(t, "solo", shards)

	// Warm one entry so the export stream has content.
	seedSynthEntries(t, eng, 1)

	// Drain via the admin surface; a drain for another shard is refused.
	resp := postJSON(t, admin.URL+"/admin/v1/drain", drainRequest{Shard: "other", Drain: true}, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("drain for foreign shard: status %d, want 404", resp.StatusCode)
	}
	resp = postJSON(t, admin.URL+"/admin/v1/drain", drainRequest{Shard: "solo", Drain: true}, nil)
	if resp.StatusCode != http.StatusOK || !st.Draining() {
		t.Fatalf("drain failed: status %d draining=%v", resp.StatusCode, st.Draining())
	}

	// Data plane sheds with 503 + Retry-After (the client's retryable set).
	reqBody, _ := json.Marshal(AdviseBody{Requests: []AdviseRequest{{Device: devices.TX2Name, App: "shwfs"}}})
	shedResp, err := http.Post(data.URL+"/v1/advise", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	shedResp.Body.Close()
	if shedResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining advise status = %d, want 503", shedResp.StatusCode)
	}
	if shedResp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 carries no Retry-After")
	}

	// Topology and export still answer.
	var topo fleet.Topology
	if resp := getJSON(t, data.URL+"/v1/fleet/topology", &topo); resp.StatusCode != http.StatusOK {
		t.Fatalf("draining topology status %d", resp.StatusCode)
	}
	if topo.Shards[0].State != fleet.StateDraining {
		t.Fatalf("draining shard reports state %q", topo.Shards[0].State)
	}
	exportResp, err := http.Get(data.URL + "/v1/cache/export")
	if err != nil {
		t.Fatal(err)
	}
	defer exportResp.Body.Close()
	if exportResp.StatusCode != http.StatusOK {
		t.Fatalf("draining export status %d", exportResp.StatusCode)
	}
	lines := 0
	sc := bufio.NewScanner(exportResp.Body)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			lines++
		}
	}
	if lines != 1 {
		t.Fatalf("draining export streamed %d entries, want 1", lines)
	}

	// Undrain restores the data plane.
	postJSON(t, admin.URL+"/admin/v1/drain", drainRequest{Shard: "solo", Drain: false}, nil)
	okResp, err := http.Post(data.URL+"/v1/advise", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	okResp.Body.Close()
	if okResp.StatusCode != http.StatusOK {
		t.Fatalf("undrained advise status = %d, want 200", okResp.StatusCode)
	}
}

// Export with ?owner= must filter on the exporter's ring, by each entry's
// characterized platform, so a joining peer pulls exactly the platforms it
// owns.
func TestFleetCacheExportOwnerFilter(t *testing.T) {
	shards := []fleet.Shard{
		{ID: "shard-a", URL: "http://a.test"},
		{ID: "shard-b", URL: "http://b.test"},
	}
	_, st, eng, data, _ := fleetTestServer(t, "shard-a", shards)
	platforms := seedSynthEntries(t, eng, 40)

	wantB := 0
	for _, platform := range platforms {
		if st.Owner(platform) == "shard-b" {
			wantB++
		}
	}
	if wantB == 0 || wantB == len(platforms) {
		t.Fatalf("degenerate split: shard-b owns %d/%d", wantB, len(platforms))
	}

	resp, err := http.Get(data.URL + "/v1/cache/export?owner=shard-b")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var line fleet.ExportLine
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatal(err)
		}
		char, err := framework.LoadCharacterization(bytes.NewReader(line.Entry))
		if err != nil {
			t.Fatal(err)
		}
		if st.Owner(char.Platform) != "shard-b" {
			t.Fatalf("export leaked %s owned by %s", char.Platform, st.Owner(char.Platform))
		}
		got++
	}
	if got != wantB {
		t.Fatalf("export streamed %d entries, want %d", got, wantB)
	}
	if st.Stats().HandoffExported != uint64(wantB) {
		t.Fatalf("exported counter = %d, want %d", st.Stats().HandoffExported, wantB)
	}
}

// Rebalance: a membership push bumps the version, and a pull warms the cache
// from the peer.
func TestFleetAdminRebalance(t *testing.T) {
	// Shard A already knows the two-shard membership (the operator pushed
	// it), so its export filter agrees with B's ring.
	shardsA := []fleet.Shard{
		{ID: "shard-a", URL: "http://placeholder.test"},
		{ID: "shard-b", URL: "http://b.test"},
	}
	_, _, engA, dataA, _ := fleetTestServer(t, "shard-a", shardsA)
	seedSynthEntries(t, engA, 30)

	// Shard B boots cold knowing both shards; its pull should fetch the
	// entries it owns from A.
	shardsBoth := []fleet.Shard{
		{ID: "shard-a", URL: dataA.URL},
		{ID: "shard-b", URL: "http://b.test"},
	}
	_, stB, engB, _, adminB := fleetTestServer(t, "shard-b", shardsBoth)

	var resp RebalanceResponse
	httpResp := postJSON(t, adminB.URL+"/admin/v1/rebalance", rebalanceRequest{Pull: true}, &resp)
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("rebalance status %d", httpResp.StatusCode)
	}
	if resp.Pulled == 0 {
		t.Fatal("pull installed no entries")
	}
	if len(resp.PeerErrors) != 0 {
		t.Fatalf("peer errors: %v", resp.PeerErrors)
	}
	if got := engB.Stats().Characterizations.Entries; got != resp.Pulled {
		t.Fatalf("engine holds %d entries, pull reported %d", got, resp.Pulled)
	}
	if stB.Stats().HandoffImported != uint64(resp.Pulled) {
		t.Fatalf("imported counter = %d, want %d", stB.Stats().HandoffImported, resp.Pulled)
	}

	// Membership push: version bumps and the ring grows.
	grown := append(shardsBoth, fleet.Shard{ID: "shard-c", URL: "http://c.test"})
	httpResp = postJSON(t, adminB.URL+"/admin/v1/rebalance", rebalanceRequest{Peers: grown}, &resp)
	if httpResp.StatusCode != http.StatusOK || resp.Version != 2 {
		t.Fatalf("membership push: status %d version %d, want 200/2", httpResp.StatusCode, resp.Version)
	}
	// Ejecting self is refused.
	httpResp = postJSON(t, adminB.URL+"/admin/v1/rebalance",
		rebalanceRequest{Peers: []fleet.Shard{{ID: "shard-a", URL: dataA.URL}}}, nil)
	if httpResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("self-ejecting push: status %d, want 400", httpResp.StatusCode)
	}
}

// /statusz grows a fleet section; /metrics grows the igpucomm_fleet_*
// family; /admin/v1/ring reports shares that sum to 1.
func TestFleetStatuszMetricsAndRing(t *testing.T) {
	shards := []fleet.Shard{
		{ID: "shard-a", URL: "http://a.test"},
		{ID: "shard-b", URL: "http://b.test"},
	}
	_, st, eng, data, admin := fleetTestServer(t, "shard-a", shards)
	seedSynthEntries(t, eng, 20)
	// Serve a device owned by the other shard: exactly one received reroute.
	remote := ""
	for i := 0; remote == ""; i++ {
		if name := fmt.Sprintf("remote-board-%d", i); !st.Owns(name) {
			remote = name
		}
	}
	st.NoteServed(remote)

	var status struct {
		Fleet *fleet.Stats `json:"fleet"`
	}
	getJSON(t, data.URL+"/statusz", &status)
	if status.Fleet == nil || status.Fleet.Self != "shard-a" || status.Fleet.Shards != 2 {
		t.Fatalf("statusz fleet section = %+v", status.Fleet)
	}
	if status.Fleet.ReroutesReceived != 1 {
		t.Fatalf("reroutes_received = %d, want 1", status.Fleet.ReroutesReceived)
	}

	metricsResp, err := http.Get(data.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metricsResp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(metricsResp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"igpucomm_fleet_ring_size 2",
		"igpucomm_fleet_reroutes_total 1",
		`igpucomm_fleet_handoff_entries_total{direction="exported"}`,
		`igpucomm_fleet_handoff_entries_total{direction="imported"}`,
		"igpucomm_fleet_draining_state 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	var ring AdminRing
	getJSON(t, admin.URL+"/admin/v1/ring", &ring)
	if len(ring.Shares) != 2 {
		t.Fatalf("ring shares = %v", ring.Shares)
	}
	total := 0.0
	for _, s := range ring.Shares {
		total += s
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("shares sum to %v, want 1", total)
	}
	var adminSt AdminStatus
	getJSON(t, admin.URL+"/admin/v1/status", &adminSt)
	if adminSt.Fleet.Self != "shard-a" || adminSt.Cache.Entries != 20 {
		t.Fatalf("admin status = %+v", adminSt)
	}
}

// Without Options.Fleet the new surface must be absent and /statusz
// byte-compatible: no fleet key, 404 on the fleet routes.
func TestNoFleetKeepsLegacySurface(t *testing.T) {
	_, ts := testServer(t)
	var raw map[string]json.RawMessage
	getJSON(t, ts.URL+"/statusz", &raw)
	if _, ok := raw["fleet"]; ok {
		t.Fatal("statusz has a fleet section without a fleet")
	}
	for _, path := range []string{"/v1/fleet/topology", "/v1/cache/export"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s status = %d without a fleet, want 404", path, resp.StatusCode)
		}
	}
}
