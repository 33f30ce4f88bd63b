package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/devices"
	"igpucomm/internal/faults"
	"igpucomm/internal/microbench"
	"igpucomm/internal/telemetry"
)

// The export/put warm-handoff surface: a fleet replica hands its
// characterizations to peers without touching disk.
func TestCacheExportPut(t *testing.T) {
	cfg, err := devices.ByName(devices.TX2Name)
	if err != nil {
		t.Fatal(err)
	}
	p := microbench.TestParams()
	key, err := CacheKey(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 2})
	ctx := context.Background()
	if _, err := e.Characterize(ctx, cfg, p); err != nil {
		t.Fatal(err)
	}

	// Export the cache and warm a second engine with it: the handoff target
	// must answer from cache without a single execution.
	exported := e.CacheExport()
	if len(exported) != 1 {
		t.Fatalf("exported %d entries, want 1", len(exported))
	}
	char, ok := exported[key]
	if !ok || char.Platform != cfg.Name {
		t.Fatalf("exported entry for %s missing or wrong: %+v", key, char)
	}

	e2 := New(Options{Workers: 2})
	e2.CachePut("", char) // no-op, must not panic or insert
	e2.CachePut(key, char)
	if _, err := e2.Characterize(ctx, cfg, p); err != nil {
		t.Fatal(err)
	}
	st2 := e2.Stats()
	if st2.Characterizations.Executions != 0 || st2.Characterizations.Hits != 1 {
		t.Fatalf("warm-started engine stats = %+v, want pure cache hit", st2.Characterizations)
	}
	if st2.Characterizations.Entries != 1 {
		t.Fatalf("warm-started engine holds %d entries, want 1", st2.Characterizations.Entries)
	}
}

// within runs f on its own goroutine and fails the test if f has not
// returned after d, so a leaked flight fails instead of hanging the suite.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s still blocked after %v", what, d)
	}
}

// A panicking characterization must end its flight: the caller gets a
// *PanicError, nothing is cached or left in flight, and the next call for
// the key runs instead of waiting on the dead flight forever.
func TestMemoPanicReleasesFlight(t *testing.T) {
	cfg := devices.TX2()
	p := microbench.TestParams()
	e := New(Options{Workers: 2})
	if err := faults.Activate(faults.NewPlan(1,
		faults.Rule{Point: "engine.characterize", Mode: faults.ModePanic, Every: 1, Count: 1},
		faults.Rule{Point: "engine.characterize", Mode: faults.ModeError, Every: 1})); err != nil {
		t.Fatal(err)
	}
	defer faults.ResetInjected()
	defer faults.Deactivate()

	var err error
	within(t, 5*time.Second, "first Characterize", func() {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Value: r}
			}
		}()
		_, err = e.Characterize(context.Background(), cfg, p)
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panicking characterization returned %v, want *PanicError", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	within(t, 5*time.Second, "Characterize after a panic", func() {
		_, err = e.Characterize(ctx, cfg, p)
	})
	var fe *faults.Error
	if !errors.As(err, &fe) {
		t.Fatalf("second Characterize = %v, want the injected error (a fresh execution)", err)
	}
	if st := e.Stats().Characterizations; st.InFlight != 0 || st.Entries != 0 || st.Executions != 2 {
		t.Fatalf("stats = %+v, want 2 executions, nothing in flight or cached", st)
	}
}

// Sharers of a panicking flight get the *PanicError too, and a sharer whose
// own context ends first stops waiting.
func TestMemoSharersOfPanicAndCancel(t *testing.T) {
	m := newMemo[int](4, 0, time.Now)
	release := make(chan struct{})
	var execErr error
	execDone := make(chan struct{})
	go func() {
		defer close(execDone)
		defer func() {
			if r := recover(); r != nil {
				execErr = &PanicError{Value: r}
			}
		}()
		_, execErr = m.do(context.Background(), "k", func() (int, error) {
			<-release
			panic("boom")
		})
	}()
	waitShared := func(n uint64) {
		for st := m.snapshot(); st.InFlight != 1 || st.Shared != n; st = m.snapshot() {
			time.Sleep(time.Millisecond)
		}
	}
	waitShared(0) // the executor owns the flight

	// A sharer whose context is cancelled returns at once.
	ctx, cancel := context.WithCancel(context.Background())
	var cancelled error
	within(t, 5*time.Second, "cancelled sharer", func() {
		go func() { waitShared(1); cancel() }()
		_, cancelled = m.do(ctx, "k", func() (int, error) { return 1, nil })
	})
	if !errors.Is(cancelled, context.Canceled) {
		t.Fatalf("cancelled sharer = %v, want context.Canceled", cancelled)
	}

	// A sharer still waiting when fn panics gets the *PanicError.
	var shared error
	within(t, 5*time.Second, "sharer of a panicking flight", func() {
		go func() { waitShared(2); close(release) }()
		_, shared = m.do(context.Background(), "k", func() (int, error) { return 1, nil })
	})
	<-execDone
	var pe *PanicError
	if !errors.As(execErr, &pe) || !errors.As(shared, &pe) || pe.Value != "boom" {
		t.Fatalf("executor %v, sharer %v, want *PanicError(boom) for both", execErr, shared)
	}
	if st := m.snapshot(); st.InFlight != 0 || st.Entries != 0 || st.Executions != 1 {
		t.Fatalf("stats = %+v, want 1 execution, nothing in flight or cached", st)
	}
}

// A profile.collect fault fails the question without being cached: the
// retry profiles again and its answer is the one kept.
func TestAdviceMemoDoesNotCacheFaults(t *testing.T) {
	cfg := devices.TX2()
	p := microbench.TestParams()
	e := New(Options{Workers: 2})
	req := Request{Device: mustDevice(t, cfg, p), App: "shwfs", Scale: catalog.Micro, Current: "zc"}
	if err := faults.Activate(faults.NewPlan(1,
		faults.Rule{Point: "profile.collect", Mode: faults.ModeError, Every: 1, Count: 1})); err != nil {
		t.Fatal(err)
	}
	defer faults.ResetInjected()
	defer faults.Deactivate()
	if _, err := e.Advise(context.Background(), req); err == nil {
		t.Fatal("advice under a profile.collect fault succeeded")
	}
	for i := 0; i < 2; i++ {
		if _, err := e.Advise(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if a := st.Advice; a.Executions != 2 || a.Hits != 1 || a.Entries != 1 {
		t.Fatalf("advice stats = %+v, want 2 executions (failure + retry), 1 hit, 1 entry", a)
	}
	if st.Requests != 3 {
		t.Fatalf("requests = %d, want 3 (every Advise call)", st.Requests)
	}
}

// One Advise call per question: a repeat is answered from the advice memo
// without asking the characterization memo, and the cold call characterizes
// in an engine.characterize span (cache=miss) nested under its
// engine.advise span.
func TestAdviseCharacterizesOnlyOnAdviceMiss(t *testing.T) {
	e := New(Options{Workers: 2})
	tr := telemetry.NewTracer(telemetry.TracerOptions{})
	ctx := telemetry.WithTracer(context.Background(), tr)
	req := Request{Device: mustDevice(t, devices.TX2(), microbench.TestParams()), App: "shwfs", Scale: catalog.Micro, Current: "sc"}
	for i := 0; i < 3; i++ {
		if _, err := e.Advise(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if c := st.Characterizations; c.Hits+c.Misses != 1 || c.Executions != 1 {
		t.Errorf("characterization stats = %+v, want one lookup, executed", c)
	}
	if a := st.Advice; a.Hits != 2 || a.Executions != 1 || st.Requests != 3 {
		t.Errorf("advice stats = %+v, requests %d, want 2 hits, 1 execution, 3 requests", a, st.Requests)
	}
	names := map[int64]string{}
	for _, sp := range tr.Spans() {
		names[sp.ID] = sp.Name
	}
	var chars []*telemetry.Span
	for _, sp := range tr.Spans() {
		if sp.Name == "engine.characterize" {
			chars = append(chars, sp)
		}
	}
	if len(chars) != 1 {
		t.Fatalf("%d engine.characterize spans, want 1 (the cold question only)", len(chars))
	}
	if parent := names[chars[0].ParentID]; parent != "engine.advise" {
		t.Errorf("engine.characterize parent = %q, want engine.advise", parent)
	}
	if !hasAttr(chars[0], "cache", "miss") {
		t.Errorf("engine.characterize attrs = %v, want cache=miss", chars[0].Attrs())
	}
}

func hasAttr(sp *telemetry.Span, key, value string) bool {
	for _, a := range sp.Attrs() {
		if a.Key == key && a.Value == value {
			return true
		}
	}
	return false
}

// Characterization failures come back marked ErrCharacterization — an
// injected error, a recovered panic (still a *PanicError) and an ended
// context (still the context's error) — while a profiling failure does not.
func TestAdviseMarksCharacterizationFailures(t *testing.T) {
	req := Request{Device: mustDevice(t, devices.TX2(), microbench.TestParams()), App: "shwfs", Scale: catalog.Micro, Current: "zc"}
	for _, tc := range []struct {
		point    string
		mode     faults.Mode
		charFail bool
	}{
		{"engine.characterize", faults.ModeError, true},
		{"engine.characterize", faults.ModePanic, true},
		{"profile.collect", faults.ModeError, false},
	} {
		if err := faults.Activate(faults.NewPlan(1, faults.Rule{Point: tc.point, Mode: tc.mode, Every: 1})); err != nil {
			t.Fatal(err)
		}
		_, err := New(Options{Workers: 2}).Advise(context.Background(), req)
		faults.Deactivate()
		faults.ResetInjected()
		if err == nil || errors.Is(err, ErrCharacterization) != tc.charFail {
			t.Errorf("%s/%v: err = %v, want characterization failure %t", tc.point, tc.mode, err, tc.charFail)
		}
		var pe *PanicError
		if tc.mode == faults.ModePanic && !errors.As(err, &pe) {
			t.Errorf("%s/panic: err = %v, want a *PanicError inside", tc.point, err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := New(Options{Workers: 2}).Advise(ctx, req)
	if !errors.Is(err, ErrCharacterization) || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled advise: err = %v, want a characterization failure wrapping context.Canceled", err)
	}
}
