package advisord

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/engine"
	"igpucomm/internal/framework"
	"igpucomm/internal/microbench"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 2})
	srv := New(eng, Options{Params: microbench.TestParams(), Scale: catalog.Quick, Logger: testLogger()})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func getJSON(t *testing.T, url string, v interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func postAdvise(t *testing.T, ts *httptest.Server, body AdviseBody) AdviseResponse {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/advise", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST /v1/advise: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/advise: status %d", resp.StatusCode)
	}
	var out AdviseResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode advise response: %v", err)
	}
	return out
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d, want 200", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "ok" {
		t.Fatalf("healthz body = %q, want ok", got)
	}
}

func TestStatuszListsCatalog(t *testing.T) {
	_, ts := testServer(t)
	var st statuszResponse
	if resp := getJSON(t, ts.URL+"/statusz", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("statusz status = %d", resp.StatusCode)
	}
	if len(st.Devices) != len(devices.All()) {
		t.Errorf("statusz devices = %v", st.Devices)
	}
	if len(st.Apps) != len(catalog.Names()) {
		t.Errorf("statusz apps = %v", st.Apps)
	}
	if st.Engine.Workers != 2 {
		t.Errorf("statusz workers = %d, want 2", st.Engine.Workers)
	}
}

// A batch naming the same device several times must execute exactly one
// characterization, and the per-request answers must match the serial
// advisor's.
func TestAdviseBatchSharesCharacterization(t *testing.T) {
	srv, ts := testServer(t)
	out := postAdvise(t, ts, AdviseBody{Requests: []AdviseRequest{
		{Device: devices.TX2Name, App: "shwfs", Current: "sc"},
		{Device: devices.TX2Name, App: "lanedet", Current: "sc"},
		{Device: devices.TX2Name, App: "orbslam", Current: "zc"},
	}})
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	for i, res := range out.Results {
		if res.Error != "" {
			t.Fatalf("result %d: unexpected error %q", i, res.Error)
		}
		if res.Recommendation == nil || res.Recommendation.Suggested == "" {
			t.Fatalf("result %d: empty recommendation", i)
		}
		if res.Zone == "" {
			t.Errorf("result %d: empty zone", i)
		}
	}
	st := srv.eng.Stats()
	if st.Characterizations.Executions != 1 {
		t.Errorf("executions = %d, want 1 (one device, one characterization)",
			st.Characterizations.Executions)
	}
	if st.Requests != 3 {
		t.Errorf("requests = %d, want 3", st.Requests)
	}
}

// Unknown devices and apps fail per-request; the valid request in the same
// batch still gets its recommendation.
func TestAdvisePerRequestErrors(t *testing.T) {
	_, ts := testServer(t)
	out := postAdvise(t, ts, AdviseBody{Requests: []AdviseRequest{
		{Device: "no-such-board", App: "shwfs"},
		{Device: devices.TX2Name, App: "no-such-app"},
		{Device: devices.TX2Name, App: "shwfs"},
	}})
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	if out.Results[0].Error == "" || out.Results[0].Recommendation != nil {
		t.Errorf("result 0 = %+v, want device error", out.Results[0])
	}
	if out.Results[1].Error == "" || out.Results[1].Recommendation != nil {
		t.Errorf("result 1 = %+v, want app error", out.Results[1])
	}
	if out.Results[2].Error != "" || out.Results[2].Recommendation == nil {
		t.Errorf("result 2 = %+v, want recommendation", out.Results[2])
	}
}

func TestAdviseRejectsBadRequests(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/advise")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/advise status = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/advise", "application/json", strings.NewReader(`{"requests":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch status = %d, want 400", resp.StatusCode)
	}
}

// The /v1/characterize body must round-trip through the framework's persist
// loader — it is documented as directly usable as an `advisor advise -char`
// file.
func TestCharacterizeEndpointRoundTrips(t *testing.T) {
	srv, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/characterize?device=" + devices.TX2Name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("characterize status = %d", resp.StatusCode)
	}
	char, err := framework.LoadCharacterization(resp.Body)
	if err != nil {
		t.Fatalf("response is not a loadable characterization: %v", err)
	}
	if char.Platform != devices.TX2Name {
		t.Errorf("platform = %q, want %q", char.Platform, devices.TX2Name)
	}

	// A second fetch must be a cache hit, not a new simulation.
	resp2, err := http.Get(ts.URL + "/v1/characterize?device=" + devices.TX2Name)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	st := srv.eng.Stats()
	if st.Characterizations.Executions != 1 {
		t.Errorf("executions = %d, want 1 after repeated fetch", st.Characterizations.Executions)
	}
	if st.Characterizations.Hits == 0 {
		t.Errorf("hits = 0, want at least one cache hit")
	}

	if resp := getJSON(t, ts.URL+"/v1/characterize?device=bogus", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("bogus device status = %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/characterize", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing device status = %d, want 400", resp.StatusCode)
	}
}

// With a cache directory configured, a characterization must be persisted in
// the framework format and a fresh server must warm-start from it without
// re-executing.
func TestCachePersistenceAcrossServers(t *testing.T) {
	dir := t.TempDir()
	eng := engine.New(engine.Options{Workers: 2})
	srv := New(eng, Options{Params: microbench.TestParams(), Scale: catalog.Quick, CacheDir: dir, Logger: testLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/characterize?device=" + devices.TX2Name)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if n := eng.Stats().Characterizations.Executions; n != 1 {
		t.Fatalf("executions = %d, want 1", n)
	}

	eng2 := engine.New(engine.Options{Workers: 2})
	n, err := eng2.LoadCache(dir)
	if err != nil {
		t.Fatalf("warm start: %v", err)
	}
	if n != 1 {
		t.Fatalf("warm start loaded %d entries, want 1", n)
	}
	srv2 := New(eng2, Options{Params: microbench.TestParams(), Scale: catalog.Quick, Logger: testLogger()})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp2, err := http.Get(ts2.URL + "/v1/characterize?device=" + devices.TX2Name)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	st := eng2.Stats()
	if st.Characterizations.Executions != 0 {
		t.Errorf("warm server executions = %d, want 0", st.Characterizations.Executions)
	}
	if st.Characterizations.Hits != 1 {
		t.Errorf("warm server hits = %d, want 1", st.Characterizations.Hits)
	}
}

// testLogger keeps request logging out of test output.
func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// TestHeatmapEndpointServesArtifact is the /v1/heatmap golden check: the
// endpoint's body must be byte-identical to the schema-versioned artifact a
// direct heat-enabled exploration produces — the same data `advisor advise -heatmap`
// writes, served over HTTP.
func TestHeatmapEndpointServesArtifact(t *testing.T) {
	srv, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/heatmap?device=" + devices.TX2Name + "&app=shwfs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heatmap status = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	art, err := framework.LoadHeatArtifact(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("response is not a loadable heat artifact: %v", err)
	}
	if len(art.Entries) == 0 {
		t.Fatal("heat artifact has no entries")
	}
	for _, e := range art.Entries {
		if e.Platform != devices.TX2Name || e.Workload != "shwfs" {
			t.Errorf("entry for %s/%s, want %s/shwfs", e.Platform, e.Workload, devices.TX2Name)
		}
		if len(e.Buffers) == 0 {
			t.Errorf("model %s: no buffer heat", e.Model)
		}
	}

	// Golden: the simulation is deterministic, so an equivalent direct
	// exploration must serialize to the exact bytes the endpoint served.
	cfg, err := devices.ByName(devices.TX2Name)
	if err != nil {
		t.Fatal(err)
	}
	w, err := catalog.ByName("shwfs", catalog.Quick)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := engine.New(engine.Options{Workers: 2}).ExploreHeat(context.Background(), cfg, w, comm.AllModels())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := framework.SaveHeatArtifact(&want,
		framework.HeatArtifact{Entries: framework.HeatEntriesFromExploration(exp)}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("endpoint body diverges from direct artifact:\ngot:  %s\nwant: %s", body, want.Bytes())
	}

	if got := srv.metrics.heatRequests.Value(); got != 1 {
		t.Errorf("heat requests metric = %d, want 1", got)
	}
	if got := srv.metrics.heatBuffers.Value(); got <= 0 {
		t.Errorf("heat buffers gauge = %v, want > 0", got)
	}
}

func TestHeatmapEndpointRejectsBadRequests(t *testing.T) {
	_, ts := testServer(t)
	for _, tt := range []struct {
		url  string
		want int
	}{
		{"/v1/heatmap", http.StatusBadRequest},
		{"/v1/heatmap?device=" + devices.TX2Name, http.StatusBadRequest},
		{"/v1/heatmap?device=bogus&app=shwfs", http.StatusNotFound},
		{"/v1/heatmap?device=" + devices.TX2Name + "&app=bogus", http.StatusNotFound},
	} {
		if resp := getJSON(t, ts.URL+tt.url, nil); resp.StatusCode != tt.want {
			t.Errorf("%s status = %d, want %d", tt.url, resp.StatusCode, tt.want)
		}
	}
}

// Repeating a question must be answered from the advice memo: the engine
// sees new requests (its own stats count them) but no new simulation work,
// and the answer is byte-identical.
func TestAdviseMemoServesRepeatedQuestions(t *testing.T) {
	srv, ts := testServer(t)
	req := AdviseBody{Requests: []AdviseRequest{
		{Device: devices.TX2Name, App: "shwfs", Current: "sc"},
	}}
	first := postAdvise(t, ts, req)
	if first.Results[0].Error != "" {
		t.Fatalf("first advise failed: %s", first.Results[0].Error)
	}
	srv.adviceMu.Lock()
	memoSize := len(srv.adviceMemo)
	srv.adviceMu.Unlock()
	if memoSize != 1 {
		t.Fatalf("advice memo holds %d entries after one advise, want 1", memoSize)
	}
	second := postAdvise(t, ts, req)
	a, _ := json.Marshal(first.Results[0])
	b, _ := json.Marshal(second.Results[0])
	if !bytes.Equal(a, b) {
		t.Fatalf("memoized answer differs:\n first %s\nsecond %s", a, b)
	}
	// A different current model is a different question and must get its
	// own memo entry, not the cached answer for "sc".
	postAdvise(t, ts, AdviseBody{Requests: []AdviseRequest{
		{Device: devices.TX2Name, App: "shwfs", Current: "zc"},
	}})
	srv.adviceMu.Lock()
	memoSize = len(srv.adviceMemo)
	srv.adviceMu.Unlock()
	if memoSize != 2 {
		t.Fatalf("advice memo holds %d entries, want 2 (distinct current model is a distinct question)", memoSize)
	}
}
