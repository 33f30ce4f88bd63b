package advisord_test

// The live-socket chaos sweep: the full device x app x current-model
// advisory sweep driven through the retrying client against a real
// advisord listener with the flaky-engine fault plan active. The other
// plans (and this one, in virtual time) run in the deterministic
// simulation suite under internal/dst; this sweep keeps one plan on the
// real HTTP stack and concurrent clients.

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
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

// schedules returns the schedules the live sweep runs under. Every rule
// aims at a point /v1/advise reaches (it never explores), and the sweep
// fails if a rule never fires.
func schedules() []schedule {
	return []schedule{
		{
			name: "flaky-engine",
			seed: 101,
			rules: []faults.Rule{
				{Point: "engine.characterize", Mode: faults.ModeError, Prob: 0.3},
				{Point: "profile.collect", Mode: faults.ModeError, Prob: 0.2},
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

// chaosServer boots an advisord instance tuned for fast failure cycling:
// short breaker cooldown so open periods do not dominate the run.
func chaosServer(t *testing.T) *httptest.Server {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 4})
	srv := advisord.New(eng, advisord.Options{
		Params:           microbench.TestParams(),
		Scale:            catalog.Quick,
		Logger:           slog.New(slog.NewTextHandler(io.Discard, nil)),
		RequestTimeout:   10 * time.Second,
		BreakerThreshold: 5,
		BreakerCooldown:  50 * time.Millisecond,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// activateSchedule installs a schedule's plan, with zeroed injection
// counters, for the duration of the test.
func activateSchedule(t *testing.T, s schedule) {
	t.Helper()
	faults.ResetInjected()
	if err := faults.Activate(faults.NewPlan(s.seed, s.rules...)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		faults.Deactivate()
		faults.ResetInjected()
	})
}

// TestSweepUnderFaultSchedules drives the full 45-combination sweep through
// the retrying client under each fault schedule, asserting that every rule
// fired, no panic escapes (the process and server survive), every response
// is valid advice or a typed error, and the server still answers health
// checks afterwards.
func TestSweepUnderFaultSchedules(t *testing.T) {
	all := combos()
	if len(all) != 45 {
		t.Fatalf("sweep has %d combos, want 45 (3 devices x 3 apps x 5 models)", len(all))
	}

	for _, sched := range schedules() {
		t.Run(sched.name, func(t *testing.T) {
			activateSchedule(t, sched)
			ts := chaosServer(t)

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
						if err := out.Results[0].Check(); err != nil {
							t.Errorf("%+v: %v", combo, err)
						}
					}
				}(w)
			}
			for _, combo := range all {
				jobs <- combo
			}
			close(jobs)
			wg.Wait()

			// A rule that never fired tested nothing.
			injected := faults.Injected()
			t.Logf("faults injected: %v", injected)
			for _, rule := range sched.rules {
				if injected[rule.Point] == 0 {
					t.Errorf("%s rule at %s never fired", rule.Mode, rule.Point)
				}
			}

			// The process survived the schedule; the server must still be
			// healthy and scrapeable.
			for _, path := range []string{"/healthz", "/metrics"} {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s after sweep = %d", path, resp.StatusCode)
				}
			}
		})
	}
}
