package advisord_test

// The chaos suite: the full device x app x current-model advisory sweep
// driven through the retrying client against an advisord instance with the
// fault-injection layer active. It asserts the service's resilience
// invariants — no panic escapes, every response is valid advice (possibly
// degraded) or a typed error, and the cache never serves corrupt entries —
// under several deterministic, seeded fault schedules.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"igpucomm/internal/advisord"
	"igpucomm/internal/advisord/client"
	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/engine"
	"igpucomm/internal/faults"
	"igpucomm/internal/microbench"
)

// schedule is one named, seeded fault schedule a chaos run activates.
type schedule struct {
	name  string
	seed  int64
	rules []faults.Rule
}

// schedules returns the fixed schedules the chaos suite sweeps under. Each
// mixes fault modes across layers: engine errors, injected panics, latency
// spikes, and persistence corruption.
func schedules() []schedule {
	return []schedule{
		{
			name: "flaky-engine",
			seed: 101,
			rules: []faults.Rule{
				{Point: "engine.characterize", Mode: faults.ModeError, Prob: 0.3},
				{Point: "engine.explore", Mode: faults.ModeError, Prob: 0.2},
				{Point: "profile.collect", Mode: faults.ModeError, Prob: 0.2},
			},
		},
		{
			name: "slow-and-panicky",
			seed: 202,
			rules: []faults.Rule{
				{Point: "engine.characterize", Mode: faults.ModePanic, Prob: 0.15},
				{Point: "profile.collect", Mode: faults.ModePanic, Prob: 0.1},
				{Point: "soc.clone", Mode: faults.ModeLatency, Prob: 0.05, Delay: 2 * time.Millisecond},
				{Point: "engine.characterize", Mode: faults.ModeLatency, Prob: 0.2, Delay: 5 * time.Millisecond},
			},
		},
		{
			name: "corrupt-persistence",
			seed: 303,
			rules: []faults.Rule{
				{Point: "engine.cache.load", Mode: faults.ModeCorrupt, Prob: 0.5},
				{Point: "engine.cache.store", Mode: faults.ModeError, Prob: 0.3},
				{Point: "framework.persist.save", Mode: faults.ModeError, Prob: 0.2},
				{Point: "engine.characterize", Mode: faults.ModeError, Prob: 0.2},
			},
		},
	}
}

// combos returns the full advisory sweep: every catalog device and app
// crossed with every communication model name as the declared current model
// (3 devices x 3 apps x 5 models = 45). The sc-async and hybrid entries are
// deliberate invalid-current probes — the framework only accepts sc/um/zc as
// a current model — so the sweep exercises the typed-error path alongside
// the advice paths.
func combos() []advisord.AdviseRequest {
	var out []advisord.AdviseRequest
	for _, cfg := range devices.All() {
		for _, app := range catalog.Names() {
			for _, m := range comm.AllModels() {
				out = append(out, advisord.AdviseRequest{
					Device: cfg.Name, App: app, Current: m.Name(),
				})
			}
		}
	}
	return out
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// chaosServer boots an advisord instance tuned for fast failure cycling:
// short breaker cooldown so open periods do not dominate the run.
func chaosServer(t *testing.T, cacheDir string) (*engine.Engine, *httptest.Server) {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 4})
	srv := advisord.New(eng, advisord.Options{
		Params:           microbench.TestParams(),
		Scale:            catalog.Quick,
		CacheDir:         cacheDir,
		Logger:           quietLogger(),
		RequestTimeout:   10 * time.Second,
		BreakerThreshold: 5,
		BreakerCooldown:  50 * time.Millisecond,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return eng, ts
}

// activateSchedule installs a schedule's plan for the duration of the test.
func activateSchedule(t *testing.T, s schedule) {
	t.Helper()
	if err := faults.Activate(faults.NewPlan(s.seed, s.rules...)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		faults.Deactivate()
		faults.ResetInjected()
	})
}

// checkResult asserts the per-response invariant: valid advice (possibly
// degraded, then with a reason) or a typed error, never a half-answer.
func checkResult(t *testing.T, combo advisord.AdviseRequest, res advisord.AdviseResult) {
	t.Helper()
	if res.Error != "" {
		if res.Recommendation != nil {
			t.Errorf("%+v: both error %q and a recommendation", combo, res.Error)
		}
		if res.ErrorKind == "" {
			t.Errorf("%+v: error %q lacks a kind", combo, res.Error)
		}
		return
	}
	if res.Recommendation == nil || res.Recommendation.Suggested == "" || res.Zone == "" {
		t.Errorf("%+v: incomplete advice %+v", combo, res)
		return
	}
	if res.Degraded && res.DegradedReason == "" {
		t.Errorf("%+v: degraded without a reason", combo)
	}
	if !res.Degraded && res.DegradedReason != "" {
		t.Errorf("%+v: reason %q on a non-degraded result", combo, res.DegradedReason)
	}
}

// TestSweepUnderFaultSchedules drives the full 45-combination sweep through
// the retrying client under each fault schedule, asserting that no panic
// escapes (the process and server survive), every response is valid advice
// or a typed error, and the server still answers health checks afterwards.
func TestSweepUnderFaultSchedules(t *testing.T) {
	all := combos()
	if len(all) != 45 {
		t.Fatalf("sweep has %d combos, want 45 (3 devices x 3 apps x 5 models)", len(all))
	}

	for _, sched := range schedules() {
		t.Run(sched.name, func(t *testing.T) {
			activateSchedule(t, sched)
			_, ts := chaosServer(t, "")

			const workers = 6
			var wg sync.WaitGroup
			jobs := make(chan advisord.AdviseRequest)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					cl := client.New(client.Options{
						BaseURL:     ts.URL,
						MaxAttempts: 3,
						BaseDelay:   2 * time.Millisecond,
						MaxDelay:    20 * time.Millisecond,
						Budget:      2 * time.Second,
						Seed:        sched.seed + int64(w),
					})
					for combo := range jobs {
						out, err := cl.Advise(context.Background(),
							advisord.AdviseBody{Requests: []advisord.AdviseRequest{combo}})
						if err != nil {
							// The client's failures must themselves be typed:
							// an HTTP-level APIError or an exhausted budget.
							var apiErr *client.APIError
							if !errors.As(err, &apiErr) && !errors.Is(err, client.ErrBudgetExhausted) {
								t.Errorf("%+v: untyped client error %v", combo, err)
							}
							continue
						}
						if len(out.Results) != 1 {
							t.Errorf("%+v: %d results", combo, len(out.Results))
							continue
						}
						checkResult(t, combo, out.Results[0])
					}
				}(w)
			}
			for _, combo := range all {
				jobs <- combo
			}
			close(jobs)
			wg.Wait()

			// The process survived the schedule; the server must still be
			// healthy and scrapeable.
			resp, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("healthz after sweep = %d", resp.StatusCode)
			}
			resp, err = http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("metrics after sweep = %d", resp.StatusCode)
			}
		})
	}
}

// TestCacheNeverServesCorruptEntries populates a cache directory under the
// corrupt-persistence schedule, then warm-starts a fresh engine from it with
// load-path corruption still firing, and asserts that every characterization
// the warm engine serves is byte-identical to a clean engine's — quarantine
// must catch everything the injector mangles.
func TestCacheNeverServesCorruptEntries(t *testing.T) {
	params := microbench.TestParams()

	// Clean baselines, computed with injection off.
	baseline := map[string]string{}
	cleanEng := engine.New(engine.Options{Workers: 4})
	for _, cfg := range devices.All() {
		char, err := cleanEng.Characterize(context.Background(), cfg, params)
		if err != nil {
			t.Fatal(err)
		}
		baseline[cfg.Name] = fmt.Sprintf("%+v", char)
	}

	// Populate the cache dir through the server under persistence faults.
	dir := t.TempDir()
	var sched schedule
	for _, s := range schedules() {
		if s.name == "corrupt-persistence" {
			sched = s
		}
	}
	if sched.name == "" {
		t.Fatal("corrupt-persistence schedule missing")
	}
	activateSchedule(t, sched)
	_, ts := chaosServer(t, dir)
	cl := client.New(client.Options{BaseURL: ts.URL, MaxAttempts: 3,
		BaseDelay: 2 * time.Millisecond, Budget: 2 * time.Second, Seed: sched.seed})
	for _, cfg := range devices.All() {
		out, err := cl.Advise(context.Background(), advisord.AdviseBody{
			Requests: []advisord.AdviseRequest{{Device: cfg.Name, App: "shwfs", Current: "sc"}},
		})
		if err == nil && len(out.Results) == 1 {
			checkResult(t, advisord.AdviseRequest{Device: cfg.Name}, out.Results[0])
		}
	}

	// Warm start a fresh engine with load-path corruption still active.
	warm := engine.New(engine.Options{Workers: 4})
	loaded, err := warm.LoadCache(dir)
	if err != nil {
		t.Fatalf("warm start must quarantine, not fail: %v", err)
	}
	quarantined := warm.Stats().CacheCorruptEntries
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if loaded+int(quarantined) != len(entries) {
		t.Errorf("loaded %d + quarantined %d != %d entries on disk",
			loaded, quarantined, len(entries))
	}

	// Injection off: whatever the warm engine now answers — cache hit or
	// recomputation after quarantine — must equal the clean baseline.
	faults.Deactivate()
	for _, cfg := range devices.All() {
		char, err := warm.Characterize(context.Background(), cfg, params)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if got := fmt.Sprintf("%+v", char); got != baseline[cfg.Name] {
			t.Errorf("%s: warm characterization diverges from clean baseline", cfg.Name)
		}
	}
}
