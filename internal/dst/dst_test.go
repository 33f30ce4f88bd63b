package dst

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"igpucomm/internal/devices"
	"igpucomm/internal/faults"
	"igpucomm/internal/fleet"
)

var (
	dstSeed = flag.Int64("dst.seed", -1,
		"replay one DST seed instead of sweeping (the replay command in a repro artifact)")
	dstSeeds = flag.Int("dst.seeds", 0,
		"seeds to sweep in TestDSTSeedSweep (0: 200)")
	dstBug = flag.String("dst.bug", "",
		"plant a named bug during the run (e.g. ack-before-install)")
)

func sweepSize() int {
	if *dstSeeds > 0 {
		return *dstSeeds
	}
	return 200
}

// failRun reports a failing run: shrink it, emit the repro artifact (to
// $DST_ARTIFACT when set), and fail the test with the replay command.
func failRun(t *testing.T, opt Options, rep *Report) {
	t.Helper()
	shrunk, shrunkRep, err := Shrink(opt, rep)
	if err != nil {
		t.Logf("shrink failed (%v); reporting the unshrunk schedule", err)
		shrunk, shrunkRep = rep.Schedule, rep
	}
	art := NewArtifact(opt, shrunkRep)
	if path := os.Getenv("DST_ARTIFACT"); path != "" {
		if werr := WriteArtifact(path, art); werr != nil {
			t.Logf("write artifact %s: %v", path, werr)
		} else {
			t.Logf("repro artifact written to %s", path)
		}
	}
	t.Logf("shrunk schedule (%d of %d events):", len(shrunk.Events), len(rep.Schedule.Events))
	for _, ev := range shrunk.Events {
		t.Logf("  %s", ev)
	}
	for _, v := range shrunkRep.Violations {
		t.Errorf("%s", v)
	}
	t.Fatalf("seed %d violated invariants; replay: %s", opt.Seed, art.Replay)
}

// TestMain gives the package's runs the reference's cache directory and
// removes it when they are done.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dst-ref-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	refCacheDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestDSTSeedSweep is the harness's front door: K seeded fleet scenarios,
// every step invariant-checked, entirely in virtual time. With -dst.seed it
// replays exactly one seed (plus -dst.bug to re-plant a bug), which is what
// a repro artifact's replay command invokes.
func TestDSTSeedSweep(t *testing.T) {
	if *dstSeed >= 0 {
		opt := Options{Seed: *dstSeed, Bug: *dstBug, Trace: testWriter{t}}
		rep, err := Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d: calls=%d errors=%d degraded=%d virtual=%s",
			rep.Seed, rep.Calls, rep.CallErrors, rep.Degraded, rep.VirtualElapsed)
		if rep.Failed() {
			failRun(t, opt, rep)
		}
		return
	}
	// Runs are individually deterministic, so the sweep fans out across
	// cores; the lowest failing seed is re-run sequentially for its repro
	// so the reported failure is stable regardless of scheduling.
	seeds := make(chan int64)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	failedSeed := int64(-1)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seeds {
				rep, err := Run(Options{Seed: seed, Bug: *dstBug, Parallel: true})
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("seed %d: %w", seed, err)
				}
				if err == nil && rep.Failed() && (failedSeed < 0 || seed < failedSeed) {
					failedSeed = seed
				}
				mu.Unlock()
			}
		}()
	}
	for seed := int64(1); seed <= int64(sweepSize()); seed++ {
		seeds <- seed
	}
	close(seeds)
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if failedSeed >= 0 {
		opt := Options{Seed: failedSeed, Bug: *dstBug}
		rep, err := Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Failed() {
			t.Fatalf("seed %d failed in the sweep but not sequentially — a run is not self-contained", failedSeed)
		}
		failRun(t, opt, rep)
	}
}

// TestDSTDeterminism is the property everything else rests on: the same
// seed must produce byte-identical reports, violations included.
func TestDSTDeterminism(t *testing.T) {
	// The corrupt-persistence run pins that a failing save leaves the cache
	// directories a function of the schedule alone.
	for _, opt := range []Options{{Seed: 1}, {Seed: 7}, {Seed: 42}, firedRun(t, "corrupt-persistence")} {
		a, err := Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d not deterministic:\n first %+v\nsecond %+v", opt.Seed, a, b)
		}
	}
}

// TestDSTRunsInVirtualTime pins the harness's reason to exist: a scenario
// that spans minutes of simulated time must finish in a fraction of a
// second of wall clock.
func TestDSTRunsInVirtualTime(t *testing.T) {
	wallStart := time.Now()
	rep, err := Run(Options{Seed: 3})
	wall := time.Since(wallStart)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("seed 3 violated invariants: %v", rep.Violations)
	}
	if rep.Calls != 8 {
		t.Fatalf("ran %d workload steps, want 8", rep.Calls)
	}
	if wall > 5*time.Second {
		t.Fatalf("run took %s of wall clock — virtual time is leaking into real sleeps", wall)
	}
}

// TestDSTCatchesInjectedBug is the harness's acceptance test: plant each
// runner-side bug and require a run to catch it by the invariant that
// exists for it, the shrinker to keep the failure while removing events,
// and the shrunk schedule to replay identically. The ack-before-install
// bug must fall to the seed sweep; the skip-quarantine bug needs a restart
// under corrupt-persistence, which the first two steps of the fired gate's
// schedule provide.
func TestDSTCatchesInjectedBug(t *testing.T) {
	sweep := make([]Options, 200)
	for i := range sweep {
		sweep[i] = Options{Seed: int64(i + 1)}
	}
	restart := firedRun(t, "corrupt-persistence")
	var evs []Event
	for _, ev := range restart.Schedule.Events {
		if ev.Step < 2 {
			evs = append(evs, ev)
		}
	}
	restart.Schedule.Events = evs
	for _, tc := range []struct {
		bug, invariant string
		runs           []Options // tried in order until one fails
	}{
		{BugAckBeforeInstall, "handoff-acked-entry-lost", sweep},
		{BugSkipQuarantine, "cache-integrity", []Options{restart}},
	} {
		t.Run(tc.bug, func(t *testing.T) {
			var failing *Report
			var opt Options
			for _, o := range tc.runs {
				o.Bug = tc.bug
				rep, err := Run(o)
				if err != nil {
					t.Fatalf("seed %d: %v", o.Seed, err)
				}
				if rep.Failed() {
					failing, opt = rep, o
					break
				}
			}
			if failing == nil {
				t.Fatalf("%s bug survived — the harness is blind to it", tc.bug)
			}
			t.Logf("bug caught by seed %d at step %d", failing.Seed, failing.Violations[0].Step)

			found := false
			for _, v := range failing.Violations {
				found = found || v.Invariant == tc.invariant
			}
			if !found {
				t.Fatalf("bug caught, but not by %s: %v", tc.invariant, failing.Violations)
			}

			shrunk, shrunkRep, err := Shrink(opt, failing)
			if err != nil {
				t.Fatal(err)
			}
			if !shrunkRep.Failed() {
				t.Fatal("shrinker returned a passing schedule")
			}
			if len(shrunk.Events) > len(failing.Schedule.Events) {
				t.Fatalf("shrinker grew the schedule: %d -> %d events",
					len(failing.Schedule.Events), len(shrunk.Events))
			}
			// The shrunk schedule must replay: same violations, twice in a row.
			ropt := opt
			ropt.Schedule = &shrunk
			again, err := Run(ropt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again.Violations, shrunkRep.Violations) {
				t.Fatalf("shrunk schedule does not replay:\n first %v\nsecond %v",
					shrunkRep.Violations, again.Violations)
			}
		})
	}
}

// TestDSTReplayAckBeforeInstall is the committed repro from the injected
// ack-before-install bug hunt: seed 3's schedule drives a crash, restart
// and warm handoff on shard-2, and the bug loses acknowledged entries. The
// same seed must fail at the same step on every run, with zero wall-clock
// sleeps — this is the artifact replay workflow, pinned in CI.
func TestDSTReplayAckBeforeInstall(t *testing.T) {
	const seed = 3
	var steps []int
	wallStart := time.Now()
	for run := 0; run < 2; run++ {
		rep, err := Run(Options{Seed: seed, Bug: BugAckBeforeInstall})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Failed() {
			t.Fatalf("run %d: seed %d no longer reproduces the bug", run, seed)
		}
		if inv := rep.Violations[0].Invariant; inv != "handoff-acked-entry-lost" {
			t.Fatalf("run %d: first violation is %q, want handoff-acked-entry-lost", run, inv)
		}
		steps = append(steps, rep.Violations[0].Step)
	}
	if steps[0] != steps[1] {
		t.Fatalf("failing step moved between identical runs: %d then %d", steps[0], steps[1])
	}
	if wall := time.Since(wallStart); wall > 2*time.Second {
		t.Fatalf("replay took %s — a repro must not sleep on the wall clock", wall)
	}
}

// testWriter adapts t.Logf for runner traces.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}

func TestGenerateIsPure(t *testing.T) {
	a := Generate(99, 3, 8)
	b := Generate(99, 3, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Generate is not a pure function of its arguments")
	}
	if len(a.Events) < 2 {
		t.Fatalf("schedule has %d events, want >= 2", len(a.Events))
	}
	for i := 1; i < len(a.Events); i++ {
		if a.Events[i].Step < a.Events[i-1].Step {
			t.Fatalf("events out of order: %v", a.Events)
		}
	}
}

func TestReplayCommand(t *testing.T) {
	want := "go test ./internal/dst -run TestDSTSeedSweep -dst.seed=17"
	if got := ReplayCommand(17); got != want {
		t.Fatalf("ReplayCommand = %q, want %q", got, want)
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	path := t.TempDir() + "/artifact.json"
	rep := &Report{Seed: 5, Schedule: Generate(5, 3, 8),
		Violations: []Violation{{Step: 2, Invariant: "x", Detail: "y"}}}
	if err := WriteArtifact(path, NewArtifact(Options{Seed: 5}, rep)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"seed": 5`, `"invariant": "x"`, ReplayCommand(5)} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("artifact missing %q:\n%s", want, data)
		}
	}
}

// firedRun is the fixed run the fired gate puts a plan through: the plan
// goes live, every shard restarts from its cache directory, the survivor —
// the shard owning the fewest devices — pulls a warm handoff, and then
// every other shard dies, so the survivor characterizes the rest of the
// devices cold.
func firedRun(t *testing.T, plan string) Options {
	t.Helper()
	const shards = 3
	ids := make([]string, shards)
	for i := range ids {
		ids[i] = idOf(i)
	}
	ring, err := fleet.NewRing(ids, 0)
	if err != nil {
		t.Fatal(err)
	}
	owned := make(map[string]int)
	for _, cfg := range devices.All() {
		owned[ring.Owner(cfg.Name)]++
	}
	survivor := 0
	for i, id := range ids {
		if owned[id] < owned[ids[survivor]] {
			survivor = i
		}
	}
	evs := []Event{{Step: 0, Kind: EvFault, Plan: plan}}
	for i := 0; i < shards; i++ {
		evs = append(evs, Event{Step: 0, Kind: EvCrash, Shard: i}, Event{Step: 1, Kind: EvRestart, Shard: i})
	}
	evs = append(evs, Event{Step: 2, Kind: EvHandoff, Shard: survivor})
	for i := 0; i < shards; i++ {
		if i != survivor {
			evs = append(evs, Event{Step: 3, Kind: EvCrash, Shard: i})
		}
	}
	sortEvents(evs)
	sched := Schedule{Seed: 1, Shards: shards, Steps: 8, Events: evs}
	return Options{Seed: sched.Seed, Shards: shards, Steps: sched.Steps, Schedule: &sched}
}

// TestFaultPlansFire is the fired gate: on one fixed schedule, every rule
// of every named plan must inject at least once, so no plan can pass by
// never reaching its fault points.
func TestFaultPlansFire(t *testing.T) {
	for _, p := range faultPlans {
		t.Run(p.name, func(t *testing.T) {
			faults.ResetInjected()
			rep, err := Run(firedRun(t, p.name))
			if err != nil {
				t.Fatal(err)
			}
			injected := faults.Injected()
			t.Logf("calls=%d errors=%d degraded=%d injected=%v", rep.Calls, rep.CallErrors, rep.Degraded, injected)
			for _, v := range rep.Violations {
				t.Errorf("%s", v)
			}
			for _, rule := range p.rules {
				if injected[rule.Point] == 0 {
					t.Errorf("%s rule at %s never fired", rule.Mode, rule.Point)
				}
			}
		})
	}
}
