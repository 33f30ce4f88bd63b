package fleet_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"igpucomm/internal/advisord"
	"igpucomm/internal/advisord/client"
	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/devices"
	"igpucomm/internal/engine"
	"igpucomm/internal/faults"
	"igpucomm/internal/fleet"
	"igpucomm/internal/framework"
	"igpucomm/internal/microbench"
	"igpucomm/internal/perfmodel"
	"igpucomm/internal/units"
)

// The storm harness: a live multi-shard advisord fleet under closed-loop
// load while the topology changes underneath it — a cold shard joins with a
// warm handoff at T/3, a shard dies without ceremony at 2T/3. The run
// asserts the tentpole's operational claims: throughput holds, fleet p99
// stays within 5x of a single-process baseline, every response is valid
// advice or a typed error, and the cache never serves corrupt entries.

// stormTargetRPS returns the throughput floor the storm must sustain. The
// race detector slows the warm advise path by ~20x on this class of
// hardware, so the floor scales rather than making `-race` CI a liar.
func stormTargetRPS() float64 {
	if fleet.RaceEnabled() {
		return 50
	}
	return 1000
}

// stormDuration returns the storm's load window. Correctness under
// topology churn now lives in the deterministic simulation suite
// (internal/dst), which sweeps hundreds of seeded schedules in virtual
// time; the real-time storm remains as a smoke check of the live-socket
// stack, so it defaults to a short profile. FLEET_STORM=full restores the
// original window for soak runs on a quiet machine.
func stormDuration() time.Duration {
	if os.Getenv("FLEET_STORM") == "full" {
		return 3 * time.Second
	}
	return 1 * time.Second
}

// stormShard is one live shard: its fleet state, engine and data listener.
type stormShard struct {
	id  string
	st  *fleet.State
	eng *engine.Engine
	ts  *httptest.Server
}

// quietLogger drops everything below Error at the Enabled check, so the
// per-request Info log costs nothing during the storm.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))
}

// startStormShard boots one shard with a placeholder single-member
// membership; the test pushes real membership once every listener URL is
// known, the same order of operations an operator's rebalance uses.
func startStormShard(t *testing.T, id string) *stormShard {
	t.Helper()
	st, err := fleet.NewState(id, []fleet.Shard{{ID: id, URL: "http://placeholder.invalid"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Workers: 2, KeyRole: st.KeyRole})
	srv := advisord.New(eng, advisord.Options{
		Params:           microbench.TestParams(),
		Scale:            catalog.Quick,
		Logger:           quietLogger(),
		RequestTimeout:   10 * time.Second,
		BreakerThreshold: 5,
		BreakerCooldown:  50 * time.Millisecond,
		Fleet:            st,
	})
	sh := &stormShard{id: id, st: st, eng: eng}
	sh.ts = httptest.NewServer(srv.Handler())
	t.Cleanup(sh.ts.Close)
	return sh
}

// membership builds the shard list for the given shards.
func membership(shards ...*stormShard) []fleet.Shard {
	out := make([]fleet.Shard, len(shards))
	for i, sh := range shards {
		out[i] = fleet.Shard{ID: sh.id, URL: sh.ts.URL}
	}
	return out
}

// pushMembership installs a membership list on every listed shard, as
// `advisorctl rebalance -peers ...` would.
func pushMembership(t *testing.T, members []fleet.Shard, shards ...*stormShard) {
	t.Helper()
	for _, sh := range shards {
		if err := sh.st.SetShards(members); err != nil {
			t.Fatalf("push membership to %s: %v", sh.id, err)
		}
	}
}

// seedSyntheticEntries spreads n synthetic characterizations across the
// fleet, each installed on the shard owning its key, so a later warm handoff
// has real freight to move.
func seedSyntheticEntries(t *testing.T, n int, shards ...*stormShard) {
	t.Helper()
	byID := make(map[string]*stormShard, len(shards))
	for _, sh := range shards {
		byID[sh.id] = sh
	}
	ring := shards[0].st.Ring()
	for i := 0; i < n; i++ {
		sum := sha256.Sum256([]byte(fmt.Sprintf("storm-seed-%d", i)))
		key := hex.EncodeToString(sum[:])
		owner, ok := byID[ring.Owner(key)]
		if !ok {
			t.Fatalf("key owner %q is not a running shard", ring.Owner(key))
		}
		owner.eng.CachePut(key, framework.Characterization{
			Platform:            fmt.Sprintf("storm-board-%d", i),
			Thresholds:          perfmodel.Thresholds{CPUCache: 0.10, GPUCacheLow: 0.10, GPUCacheHigh: 0.30},
			PeakGPUThroughput:   100 * units.GBps,
			PinnedGPUThroughput: 10 * units.GBps,
			ZCSCMaxSpeedup:      10,
			SCZCMaxSpeedup:      2.5,
		})
	}
}

// deviceRequests is the storm's request mix: one valid advisory question per
// catalog device, so the warm path dominates and every shard owning a device
// key sees traffic.
func deviceRequests() []advisord.AdviseRequest {
	var out []advisord.AdviseRequest
	for _, cfg := range devices.All() {
		out = append(out, advisord.AdviseRequest{Device: cfg.Name, App: "shwfs", Current: "sc"})
	}
	return out
}

// checkStormResult enforces the per-response invariant under churn: complete
// advice (possibly degraded, then with a reason) or a typed error — never a
// half-answer.
func checkStormResult(res advisord.AdviseResult) error {
	if res.Error != "" {
		if res.Recommendation != nil {
			return fmt.Errorf("both error %q and a recommendation", res.Error)
		}
		if res.ErrorKind == "" {
			return fmt.Errorf("error %q lacks a kind", res.Error)
		}
		return nil
	}
	if res.Recommendation == nil || res.Recommendation.Suggested == "" || res.Zone == "" {
		return fmt.Errorf("incomplete advice %+v", res)
	}
	if res.Degraded && res.DegradedReason == "" {
		return fmt.Errorf("degraded without a reason")
	}
	return nil
}

// stormDo builds the closed-loop Do func: each call advises the whole
// request mix as one batch — so every call exercises the client's
// split-by-owner routing across shards — and validates the response
// invariant. Each answered question counts as one op.
func stormDo(cl *client.Client, reqs []advisord.AdviseRequest, violations *atomic.Int64) func(context.Context) (int, error) {
	return func(ctx context.Context) (int, error) {
		body := advisord.AdviseBody{Requests: reqs}
		resp, err := cl.Advise(ctx, body)
		if err != nil {
			return 0, err
		}
		for _, res := range resp.Results {
			if verr := checkStormResult(res); verr != nil {
				violations.Add(1)
				return len(resp.Results), verr
			}
		}
		return len(resp.Results), nil
	}
}

// warmFleet pushes every request through once so each shard characterizes
// the device keys it owns before the clock starts.
func warmFleet(t *testing.T, cl *client.Client, reqs []advisord.AdviseRequest) {
	t.Helper()
	for _, ar := range reqs {
		if _, err := cl.Advise(context.Background(), advisord.AdviseBody{Requests: []advisord.AdviseRequest{ar}}); err != nil {
			t.Fatalf("warm advise %s: %v", ar.Device, err)
		}
	}
}

// singleProcessBaseline measures the non-fleet advisord p99 the storm is
// held against.
func singleProcessBaseline(t *testing.T, reqs []advisord.AdviseRequest) fleet.LoadSummary {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 2})
	srv := advisord.New(eng, advisord.Options{
		Params:         microbench.TestParams(),
		Scale:          catalog.Quick,
		Logger:         quietLogger(),
		RequestTimeout: 10 * time.Second,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	cl := client.New(client.Options{BaseURL: ts.URL})
	warmFleet(t, cl, reqs)
	var violations atomic.Int64
	sum, err := fleet.RunLoad(context.Background(), fleet.LoadOptions{
		Workers:  4,
		Duration: 1 * time.Second,
		Do:       stormDo(cl, reqs, &violations),
	})
	if err != nil {
		t.Fatal(err)
	}
	if violations.Load() != 0 {
		t.Fatalf("baseline produced %d invalid responses", violations.Load())
	}
	return sum
}

// stormClient builds the fleet client the storm drives: aggressive backoff
// caps so a dead shard costs milliseconds, not seconds, and the shared
// topology-refresh rate limit low enough to learn the join mid-storm.
func stormClient(rt *fleet.Router) *client.Client {
	return client.New(client.Options{
		Fleet:              rt,
		Params:             microbench.TestParams(),
		MaxAttempts:        6,
		BaseDelay:          time.Millisecond,
		MaxDelay:           10 * time.Millisecond,
		Budget:             2 * time.Second,
		RefreshMinInterval: 100 * time.Millisecond,
	})
}

// stormArtifact is the latency summary `make fleet` uploads when
// FLEET_SUMMARY names a path.
type stormArtifact struct {
	Race            bool              `json:"race"`
	TargetRPS       float64           `json:"target_rps"`
	Baseline        fleet.LoadSummary `json:"baseline"`
	Storm           fleet.LoadSummary `json:"storm"`
	JoinPulled      int               `json:"join_pulled"`
	ClientStats     fleet.RouterStats `json:"client_stats"`
	ServerReroutes  uint64            `json:"server_reroutes"`
	HandoffImported uint64            `json:"handoff_imported"`
}

// writeStormArtifact persists the run summary when FLEET_SUMMARY is set.
func writeStormArtifact(t *testing.T, art stormArtifact) {
	t.Helper()
	path := os.Getenv("FLEET_SUMMARY")
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	t.Logf("storm summary written to %s", path)
}

func TestFleetStormJoinAndDeath(t *testing.T) {
	a := startStormShard(t, "shard-a")
	b := startStormShard(t, "shard-b")
	c := startStormShard(t, "shard-c")
	core := []*stormShard{a, b, c}
	pushMembership(t, membership(core...), core...)
	seedSyntheticEntries(t, 60, core...)

	// The cold shard exists but is not yet a member: no traffic routes to
	// it until the mid-storm membership push.
	d := startStormShard(t, "shard-d")
	all := []*stormShard{a, b, c, d}
	fullMembers := membership(all...)

	// Pick the kill victim among the original shards: the owner of a device
	// key under the post-join ring, so its death actually rejects traffic.
	fullRing, err := fleet.NewRing([]string{"shard-a", "shard-b", "shard-c", "shard-d"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	reqs := deviceRequests()
	rt, err := fleet.NewRouter(fleet.RouterOptions{Shards: membership(core...)})
	if err != nil {
		t.Fatal(err)
	}
	cl := stormClient(rt)
	victim := a
	for _, ar := range reqs {
		owner := fullRing.Owner(clientRouteKey(t, ar))
		for _, sh := range core {
			if sh.id == owner {
				victim = sh
			}
		}
	}
	warmFleet(t, cl, reqs)
	baseline := singleProcessBaseline(t, reqs)
	if baseline.P99Micros <= 0 {
		t.Fatalf("baseline p99 = %d", baseline.P99Micros)
	}

	storm := stormDuration()
	var joinPulled atomic.Int64
	join := time.AfterFunc(storm/3, func() {
		// The join protocol: membership push to every replica first, then
		// the cold shard pulls the entries it now owns from its peers.
		pushMembership(t, fullMembers, all...)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		rep, err := fleet.Pull(ctx, d.st, nil, d.eng.CachePut)
		if err != nil {
			t.Errorf("join pull: %v", err)
			return
		}
		joinPulled.Store(int64(rep.Pulled))
	})
	defer join.Stop()
	kill := time.AfterFunc(2*storm/3, func() {
		// No drain, no goodbye: the shard's listener dies mid-connection.
		victim.ts.CloseClientConnections()
		victim.ts.Close()
	})
	defer kill.Stop()

	var violations atomic.Int64
	sum, err := fleet.RunLoad(context.Background(), fleet.LoadOptions{
		Workers:  4,
		Duration: storm,
		Do:       stormDo(cl, reqs, &violations),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("storm: %.0f rps over %d calls, p50=%dµs p99=%dµs (baseline p99=%dµs), %d errors",
		sum.AchievedRPS, sum.Calls, sum.P50Micros, sum.P99Micros, baseline.P99Micros, sum.Errors)

	if target := stormTargetRPS(); sum.AchievedRPS < target {
		t.Errorf("achieved %.0f RPS, floor is %.0f", sum.AchievedRPS, target)
	}
	if limit := 5 * baseline.P99Micros; sum.P99Micros >= limit {
		t.Errorf("storm p99 %dµs >= 5x baseline %dµs", sum.P99Micros, baseline.P99Micros)
	}
	if violations.Load() != 0 {
		t.Errorf("%d responses broke the advice-or-typed-error invariant", violations.Load())
	}
	if got := joinPulled.Load(); got == 0 {
		t.Error("cold shard's warm handoff pulled nothing")
	}
	if sum.Errors*10 > sum.Calls {
		t.Errorf("%d of %d calls failed outright; the fleet should absorb a single shard death", sum.Errors, sum.Calls)
	}
	var serverReroutes, imported uint64
	for _, sh := range all {
		if sh == victim {
			continue
		}
		st := sh.st.Stats()
		serverReroutes += st.ReroutesReceived
		imported += st.HandoffImported
		if corrupt := sh.eng.Stats().CacheCorruptEntries; corrupt != 0 {
			t.Errorf("%s quarantined %d corrupt cache entries", sh.id, corrupt)
		}
	}
	if serverReroutes == 0 {
		t.Error("no shard reports serving a rerouted key after the death")
	}
	if imported == 0 {
		t.Error("handoff import counter never moved")
	}
	cs := rt.Stats()
	if cs.Reroutes == 0 {
		t.Error("client never rerouted around the dead shard")
	}
	if rt.Version() < 2 {
		t.Errorf("client never refreshed topology mid-storm (version %d)", rt.Version())
	}
	writeStormArtifact(t, stormArtifact{
		Race:            fleet.RaceEnabled(),
		TargetRPS:       stormTargetRPS(),
		Baseline:        baseline,
		Storm:           sum,
		JoinPulled:      int(joinPulled.Load()),
		ClientStats:     cs,
		ServerReroutes:  serverReroutes,
		HandoffImported: imported,
	})
}

// clientRouteKey mirrors the client's key computation for victim selection.
func clientRouteKey(t *testing.T, ar advisord.AdviseRequest) string {
	t.Helper()
	cfg, err := devices.ByName(ar.Device)
	if err != nil {
		t.Fatal(err)
	}
	key, err := engine.CacheKey(cfg, microbench.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestFleetStormUnderChaosSchedule replays the storm's load shape with the
// chaos suite's flaky-engine schedule (seed 101, as in internal/advisord's
// chaos_test.go) active: injected engine errors must surface as degraded
// advice or typed errors — the fleet layer must not amplify them into
// invariant violations or corrupt cache entries.
func TestFleetStormUnderChaosSchedule(t *testing.T) {
	a := startStormShard(t, "shard-a")
	b := startStormShard(t, "shard-b")
	c := startStormShard(t, "shard-c")
	core := []*stormShard{a, b, c}
	pushMembership(t, membership(core...), core...)

	rt, err := fleet.NewRouter(fleet.RouterOptions{Shards: membership(core...)})
	if err != nil {
		t.Fatal(err)
	}
	cl := stormClient(rt)
	reqs := deviceRequests()
	// Warm before the faults go live: cold characterization under the race
	// detector takes longer than the whole storm window, and the chaos
	// question is about the steady state anyway.
	warmFleet(t, cl, reqs)

	flakyEngine := faults.NewPlan(101,
		faults.Rule{Point: "engine.characterize", Mode: faults.ModeError, Prob: 0.3},
		faults.Rule{Point: "engine.explore", Mode: faults.ModeError, Prob: 0.2},
		faults.Rule{Point: "profile.collect", Mode: faults.ModeError, Prob: 0.2},
	)
	if err := faults.Activate(flakyEngine); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		faults.Deactivate()
		faults.ResetInjected()
	})

	var violations atomic.Int64
	sum, err := fleet.RunLoad(context.Background(), fleet.LoadOptions{
		Workers:  4,
		Duration: stormDuration() / 2,
		Do:       stormDo(cl, reqs, &violations),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("chaos storm: %.0f rps over %d calls, %d errors, %d faults injected",
		sum.AchievedRPS, sum.Calls, sum.Errors, faults.InjectedTotal())

	if sum.Calls == 0 {
		t.Fatal("chaos storm completed no calls")
	}
	if violations.Load() != 0 {
		t.Errorf("%d responses broke the advice-or-typed-error invariant under chaos", violations.Load())
	}
	for _, sh := range core {
		if corrupt := sh.eng.Stats().CacheCorruptEntries; corrupt != 0 {
			t.Errorf("%s quarantined %d corrupt cache entries", sh.id, corrupt)
		}
	}
}
