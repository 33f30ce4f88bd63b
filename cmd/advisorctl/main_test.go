package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"

	"igpucomm/internal/advisord"
	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/engine"
	"igpucomm/internal/fleet"
	"igpucomm/internal/framework"
	"igpucomm/internal/microbench"
	"igpucomm/internal/perfmodel"
	"igpucomm/internal/units"
)

// shardHarness is one live advisord shard: engine, fleet state, and its data
// and admin listeners.
type shardHarness struct {
	id    string
	st    *fleet.State
	eng   *engine.Engine
	data  *httptest.Server
	admin *httptest.Server
}

// startShard boots one shard with a single-member placeholder membership;
// tests push the real membership through `advisorctl rebalance`, exactly as
// an operator would.
func startShard(t *testing.T, id string) *shardHarness {
	t.Helper()
	st, err := fleet.NewState(id, []fleet.Shard{{ID: id, URL: "http://placeholder.invalid"}}, 64)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Workers: 1})
	srv := advisord.New(eng, advisord.Options{
		Params: microbench.TestParams(),
		Scale:  catalog.Quick,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		Fleet:  st,
	})
	h := &shardHarness{id: id, st: st, eng: eng}
	h.data = httptest.NewServer(srv.Handler())
	t.Cleanup(h.data.Close)
	h.admin = httptest.NewServer(srv.AdminHandler())
	t.Cleanup(h.admin.Close)
	return h
}

// seedEntries installs n synthetic characterizations under content-hash keys.
func seedEntries(t *testing.T, eng *engine.Engine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		sum := sha256.Sum256([]byte(fmt.Sprintf("advisorctl-%d", i)))
		eng.CachePut(hex.EncodeToString(sum[:]), framework.Characterization{
			Platform:            fmt.Sprintf("board-%d", i),
			Thresholds:          perfmodel.Thresholds{CPUCache: 0.10, GPUCacheLow: 0.10, GPUCacheHigh: 0.30},
			PeakGPUThroughput:   100 * units.GBps,
			PinnedGPUThroughput: 10 * units.GBps,
			ZCSCMaxSpeedup:      10,
			SCZCMaxSpeedup:      2.5,
		})
	}
}

// runCtl drives the CLI entry point and captures its output.
func runCtl(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestAdvisorctlAgainstLiveFleet(t *testing.T) {
	a := startShard(t, "shard-a")
	b := startShard(t, "shard-b")
	seedEntries(t, a.eng, 32)
	fleetList := a.admin.URL + "," + b.admin.URL

	// status: one row per replica, both reachable.
	code, out, errOut := runCtl("-fleet", fleetList, "status")
	if code != 0 {
		t.Fatalf("status exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "shard-a") || !strings.Contains(out, "shard-b") {
		t.Fatalf("status output missing shards:\n%s", out)
	}

	// rebalance: push the real two-shard membership to both replicas and
	// warm-pull — shard-b should receive the entries it now owns.
	peers := "shard-a=" + a.data.URL + ",shard-b=" + b.data.URL
	code, out, errOut = runCtl("-fleet", fleetList, "rebalance", "-peers", peers, "-pull")
	if code != 0 {
		t.Fatalf("rebalance exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "VERSION") {
		t.Fatalf("rebalance output:\n%s", out)
	}
	if a.st.Version() != 2 || b.st.Version() != 2 {
		t.Fatalf("versions after rebalance: a=%d b=%d", a.st.Version(), b.st.Version())
	}
	bOwned := 0
	for _, char := range a.eng.CacheExport() {
		if b.st.Owns(char.Platform) {
			bOwned++
		}
	}
	if bOwned == 0 {
		t.Skip("hash placed every seeded platform on shard-a; nothing to hand off")
	}
	if got := len(b.eng.CacheExport()); got != bOwned {
		t.Fatalf("shard-b pulled %d entries, owns %d", got, bOwned)
	}

	// ring: reports the pushed topology.
	code, out, errOut = runCtl("-fleet", fleetList, "ring")
	if code != 0 {
		t.Fatalf("ring exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "topology version 2") || !strings.Contains(out, "shard-b") {
		t.Fatalf("ring output:\n%s", out)
	}

	// drain/undrain: locates shard-b by identity and flips its flag.
	if code, _, errOut = runCtl("-fleet", fleetList, "drain", "shard-b"); code != 0 {
		t.Fatalf("drain exit %d, stderr: %s", code, errOut)
	}
	if !b.st.Draining() || a.st.Draining() {
		t.Fatalf("drain flags: a=%t b=%t", a.st.Draining(), b.st.Draining())
	}
	if code, _, errOut = runCtl("-fleet", fleetList, "undrain", "shard-b"); code != 0 {
		t.Fatalf("undrain exit %d, stderr: %s", code, errOut)
	}
	if b.st.Draining() {
		t.Fatal("shard-b still draining after undrain")
	}

	// Unknown shard: command fails and names the replicas it saw.
	code, _, errOut = runCtl("-fleet", fleetList, "drain", "shard-z")
	if code != 1 || !strings.Contains(errOut, "shard-z") {
		t.Fatalf("drain of unknown shard: exit %d, stderr: %s", code, errOut)
	}
}

func TestAdvisorctlStatusCountsDeadReplica(t *testing.T) {
	a := startShard(t, "shard-a")
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close()
	code, out, errOut := runCtl("-fleet", a.admin.URL+","+deadURL, "status")
	if code != 1 {
		t.Fatalf("status with dead replica: exit %d", code)
	}
	if !strings.Contains(out, "shard-a") {
		t.Fatalf("live replica missing from output:\n%s", out)
	}
	if !strings.Contains(errOut, deadURL) {
		t.Fatalf("dead replica not reported:\n%s", errOut)
	}
}

func TestAdvisorctlUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"no endpoints", []string{"status"}},
		{"no command", []string{"-fleet", "http://h:1"}},
		{"unknown command", []string{"-fleet", "http://h:1", "explode"}},
		{"drain without shard", []string{"-fleet", "http://h:1", "drain"}},
		{"rebalance without effect", []string{"-fleet", "http://h:1", "rebalance"}},
		{"rebalance bad peers", []string{"-fleet", "http://h:1", "rebalance", "-peers", "nonsense"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if code, _, _ := runCtl(tc.args...); code != 2 {
				t.Errorf("args %v: exit %d, want 2", tc.args, code)
			}
		})
	}
}

func TestSplitEndpoints(t *testing.T) {
	got := splitEndpoints(" http://h1:8125/ ,, http://h2:8125 ")
	if len(got) != 2 || got[0] != "http://h1:8125" || got[1] != "http://h2:8125" {
		t.Errorf("splitEndpoints = %v", got)
	}
	if splitEndpoints("") != nil {
		t.Error("empty spec should yield no endpoints")
	}
}
