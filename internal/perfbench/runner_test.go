package perfbench

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// fakeScenario records the order its body runs in.
func fakeScenario(name string, order *[]string, fail error) Scenario {
	return Scenario{
		Name:      name,
		Component: "test",
		Prepare: func(context.Context) (func(context.Context) error, func(), error) {
			return func(context.Context) error {
				*order = append(*order, name)
				return fail
			}, nil, nil
		},
	}
}

func TestRunInterleavesRounds(t *testing.T) {
	var order []string
	scenarios := []Scenario{
		fakeScenario("x", &order, nil),
		fakeScenario("y", &order, nil),
	}
	a, err := Run(context.Background(), scenarios, RunOptions{Iterations: 3, Warmup: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// 1 warmup round, calibration calls for each, then 3 timed rounds,
	// each x-then-y. The fakes are instant, so calibration and every sample
	// are runs of calls; runs collapse to one entry.
	var runs []string
	for i, name := range order {
		if i == 0 || order[i-1] != name {
			runs = append(runs, name)
		}
	}
	want := []string{"x", "y", "x", "y", "x", "y", "x", "y", "x", "y"}
	if fmt.Sprint(runs) != fmt.Sprint(want) {
		t.Errorf("execution order (runs) = %v, want interleaved %v", runs, want)
	}
	if len(a.Scenarios) != 2 || a.Scenarios[0].Iterations != 3 {
		t.Errorf("artifact shape wrong: %+v", a.Scenarios)
	}
	if err := a.Validate(); err != nil {
		t.Errorf("runner emitted invalid artifact: %v", err)
	}
}

func TestRunRecordsSamplesPerIteration(t *testing.T) {
	var order []string
	a, err := Run(context.Background(), []Scenario{fakeScenario("s", &order, nil)},
		RunOptions{Iterations: 4, Warmup: 0})
	if err != nil {
		t.Fatal(err)
	}
	s := a.Scenarios[0]
	if len(s.SamplesNS) != 4 {
		t.Fatalf("samples = %d, want 4", len(s.SamplesNS))
	}
	for i, v := range s.SamplesNS {
		if v < 0 {
			t.Errorf("sample %d negative: %v", i, v)
		}
	}
	if s.MinNS > s.MedianNS || s.MedianNS > s.P95NS {
		t.Errorf("stats unordered: %+v", s)
	}
}

func TestRunScenarioErrorAborts(t *testing.T) {
	var order []string
	scenarios := []Scenario{fakeScenario("bad", &order, fmt.Errorf("boom"))}
	if _, err := Run(context.Background(), scenarios, RunOptions{Iterations: 2}); err == nil {
		t.Fatal("failing scenario produced an artifact")
	}
}

func TestRunPrepareErrorAborts(t *testing.T) {
	s := Scenario{Name: "p", Component: "test",
		Prepare: func(context.Context) (func(context.Context) error, func(), error) {
			return nil, nil, fmt.Errorf("no deps")
		}}
	if _, err := Run(context.Background(), []Scenario{s}, RunOptions{Iterations: 1}); err == nil {
		t.Fatal("failing Prepare produced an artifact")
	}
}

func TestRunCallsCleanup(t *testing.T) {
	cleaned := false
	s := Scenario{Name: "c", Component: "test",
		Prepare: func(context.Context) (func(context.Context) error, func(), error) {
			return func(context.Context) error { return nil },
				func() { cleaned = true }, nil
		}}
	if _, err := Run(context.Background(), []Scenario{s}, RunOptions{Iterations: 1}); err != nil {
		t.Fatal(err)
	}
	if !cleaned {
		t.Error("cleanup not called")
	}
}

func TestRunRejectsDuplicateNames(t *testing.T) {
	var order []string
	scenarios := []Scenario{
		fakeScenario("dup", &order, nil),
		fakeScenario("dup", &order, nil),
	}
	if _, err := Run(context.Background(), scenarios, RunOptions{Iterations: 1}); err == nil {
		t.Fatal("duplicate scenario names accepted")
	}
}

func TestRunStampsMetadata(t *testing.T) {
	var order []string
	now := time.Date(2026, 8, 5, 9, 0, 0, 0, time.UTC)
	a, err := Run(context.Background(), []Scenario{fakeScenario("m", &order, nil)},
		RunOptions{Iterations: 1, Quick: true, Now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	if a.CreatedAt != "2026-08-05T09:00:00Z" {
		t.Errorf("created_at = %q", a.CreatedAt)
	}
	if !a.Quick {
		t.Error("quick flag not recorded")
	}
	if a.Host.NumCPU <= 0 || a.Host.GoVersion == "" {
		t.Errorf("host metadata missing: %+v", a.Host)
	}
	if a.Build.Main == "" {
		t.Errorf("build metadata missing: %+v", a.Build)
	}
}

// A short body is sampled warm: its first call after another scenario ran
// is slow (it stands in for caches and threads that scenario left cold) and
// must not become the sample; a body slower than minSample is one call.
func TestRunSamplesShortBodiesWarm(t *testing.T) {
	last := ""
	calls := map[string]int{}
	body := func(name string, d time.Duration, coldExtra time.Duration) Scenario {
		return Scenario{Name: name, Component: "test",
			Prepare: func(context.Context) (func(context.Context) error, func(), error) {
				return func(context.Context) error {
					calls[name]++
					if last != name {
						time.Sleep(coldExtra)
					}
					last = name
					time.Sleep(d)
					return nil
				}, nil, nil
			}}
	}
	a, err := Run(context.Background(), []Scenario{
		body("short", 0, 3*time.Millisecond),
		body("long", 2*minSample, 0),
	}, RunOptions{Iterations: 3, Warmup: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range a.Scenarios {
		if s.Name == "short" && s.MedianNS >= float64(time.Millisecond) {
			t.Errorf("short body sampled at %v, want its warm call (well under 1ms)", time.Duration(s.MedianNS))
		}
	}
	// long: warmup, calibration and one call per round.
	if calls["long"] != 1+1+3 {
		t.Errorf("long body called %d times, want 5 (one call per sample)", calls["long"])
	}
	// short: warmup, two calibration calls (the second one warm and
	// instant, so a sample takes the capped count), and per round a
	// re-warm call plus the timed ones.
	if want := 1 + 2 + 3*(1+maxCallsPerSample); calls["short"] != want {
		t.Errorf("short body called %d times, want %d", calls["short"], want)
	}
}
