package comm

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"igpucomm/internal/devices"
	"igpucomm/internal/hazard"
	"igpucomm/internal/soc"
	"igpucomm/internal/tiling"
)

func TestVerifyAllDevicesModelsClean(t *testing.T) {
	w := streamWorkload(4096, false)
	for _, name := range []string{devices.NanoName, devices.TX2Name, devices.XavierName} {
		s, err := devices.NewSoC(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range AllModels() {
			rep, err := Verify(s, w, m)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, m.Name(), err)
			}
			if !rep.OK() {
				t.Errorf("%s/%s: seed schedule refuted:\n%s", name, m.Name(), rep)
			}
			if rep.Checked == 0 {
				t.Errorf("%s/%s: verifier proved nothing", name, m.Name())
			}
			// Verification must not leak allocations.
			if got := len(s.Space.Buffers()); got != 0 {
				t.Errorf("%s/%s: %d buffers leaked by Verify", name, m.Name(), got)
			}
		}
	}
}

// brokenZC runs the zero-copy model but declares a schedule where the GPU
// steals one of the CPU's phase-1 tiles — the odd/even overlap the verifier
// exists to catch.
type brokenZC struct{ ZC }

func (brokenZC) Schedule(w Workload, geo tiling.Geometry, phases int) (hazard.Schedule, error) {
	sched, err := hazard.FromPattern(tiling.Pattern{Geo: geo, Phases: phases})
	if err != nil {
		return sched, err
	}
	stolen := sched.Phases[1].CPU[0]
	sched.Phases[1].GPU = append(sched.Phases[1].GPU, stolen)
	return sched, nil
}

func TestVerifyBrokenScheduleCounterexample(t *testing.T) {
	s := soc.New(devices.TX2())
	w := streamWorkload(4096, false)
	rep, err := Verify(s, w, brokenZC{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("overlapping schedule verified as safe")
	}
	if n := rep.CountKind(hazard.ParityOverlap); n != 1 {
		t.Fatalf("want exactly 1 parity-overlap counterexample, got %d:\n%s", n, rep)
	}
	var f hazard.Finding
	for _, c := range rep.Findings {
		if c.Kind == hazard.ParityOverlap {
			f = c
		}
	}
	// The counterexample must name the phase and the conflicting tile.
	if f.Phase != 1 {
		t.Errorf("counterexample phase = %d, want 1", f.Phase)
	}
	if !strings.Contains(f.Detail, "phase 1") || !strings.Contains(f.Detail, "both cpu and gpu") {
		t.Errorf("counterexample does not name the conflict: %q", f.Detail)
	}
}

func TestCheckedRunRefusesBrokenSchedule(t *testing.T) {
	s := soc.New(devices.TX2())
	w := streamWorkload(4096, false)
	rep, err := CheckedRun(context.Background(), s, w, brokenZC{})
	if err == nil {
		t.Fatal("checked run executed a refuted schedule")
	}
	if !strings.Contains(err.Error(), "refuted") {
		t.Errorf("error does not say refuted: %v", err)
	}
	if rep.Hazards == nil || rep.Hazards.OK() {
		t.Error("refusal must carry the hazard report")
	}
	if rep.Total != 0 {
		t.Error("refused run must not report a runtime")
	}
}

func TestCheckedRunAttachesReport(t *testing.T) {
	s := soc.New(devices.TX2())
	w := streamWorkload(4096, false)
	rep, err := CheckedRun(context.Background(), s, w, ZC{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hazards == nil || !rep.Hazards.OK() {
		t.Fatal("clean checked run must attach a passing hazard report")
	}
	if rep.Total <= 0 || rep.Model != "zc" {
		t.Errorf("checked run did not execute the inner model: %+v", rep)
	}

	// The same run through the plain path carries no report.
	plain, err := ZC{}.Run(s, w)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Hazards != nil {
		t.Error("unchecked run must not attach a hazard report")
	}
}

func TestCheckedWrapperIsAModel(t *testing.T) {
	var m Model = Checked{Inner: SC{}}
	if m.Name() != "sc+checked" {
		t.Errorf("name = %q", m.Name())
	}
	s := soc.New(devices.TX2())
	rep, err := m.Run(s, streamWorkload(1024, false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hazards == nil {
		t.Error("wrapper did not verify")
	}
}

func TestTraceCheckCleanAllModels(t *testing.T) {
	w := streamWorkload(4096, false)
	for _, name := range []string{devices.TX2Name, devices.XavierName} {
		s, err := devices.NewSoC(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range AllModels() {
			rep, err := TraceCheck(s, w, m, 0)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, m.Name(), err)
			}
			if !rep.OK() {
				t.Errorf("%s/%s: trace replay flagged hazards:\n%s", name, m.Name(), rep)
			}
			if rep.Checked == 0 {
				t.Errorf("%s/%s: trace replay checked nothing", name, m.Name())
			}
			if got := len(s.Space.Buffers()); got != 0 {
				t.Errorf("%s/%s: %d buffers leaked by TraceCheck", name, m.Name(), got)
			}
		}
	}
}

func TestTraceCheckFlagsMissingFlush(t *testing.T) {
	// Strip UM of its migration writebacks by presenting it as a bare
	// planner: both sides address the same managed bytes through their
	// caches, so with the CPU's input lines still dirty in the LLC the
	// GPU's reads must be flagged as flush-ordering violations on a
	// software-coherent platform.
	s := soc.New(devices.TX2())
	w := streamWorkload(4096, false)
	rep, err := TraceCheck(s, w, noFlushUM{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CountKind(hazard.FlushOrder) == 0 {
		t.Fatalf("missing flushes not flagged:\n%s", rep)
	}

	// On Xavier the I/O-coherent GPU snoops the CPU LLC; the same protocol
	// is clean there.
	x := soc.New(devices.Xavier())
	rep, err = TraceCheck(x, w, noFlushUM{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("I/O-coherent platform flagged spurious flush hazards:\n%s", rep)
	}
}

// noFlushUM looks like UM to the planner but is not one of the software-
// coherence model types, so TraceCheck emits no flush events for it.
type noFlushUM struct{ UM }

func (noFlushUM) Name() string { return "um-noflush" }

func TestTraceCheckRejectsBadLaunch(t *testing.T) {
	s := soc.New(devices.TX2())
	w := streamWorkload(1024, false)
	if _, err := TraceCheck(s, w, ZC{}, 1); err == nil {
		t.Error("out-of-range launch accepted")
	}
	if _, err := TraceCheck(s, w, ZC{}, -1); err == nil {
		t.Error("negative launch accepted")
	}
}

// TestCheckedRunCompilesLikeRun: Verify places through Place, so it wires
// and then clears pinned routing on the platform before each run. That must
// not cost compiles: repeated checked runs on one platform compile exactly
// the kernels repeated plain runs do, per run, and reach the same steady
// state, where a run replays without compiling.
func TestCheckedRunCompilesLikeRun(t *testing.T) {
	w := streamWorkload(4096, false)
	for _, m := range AllModels() {
		t.Run(m.Name(), func(t *testing.T) {
			compiles := func(run func(s *soc.SoC) error) []int64 {
				s := soc.New(devices.TX2())
				var per []int64
				for i := 0; i < 3; i++ {
					before := s.GPU.Work().KernelsCompiled
					if err := run(s); err != nil {
						t.Fatal(err)
					}
					per = append(per, s.GPU.Work().KernelsCompiled-before)
				}
				return per
			}
			plain := compiles(func(s *soc.SoC) error { _, err := m.Run(s, w); return err })
			checked := compiles(func(s *soc.SoC) error {
				_, err := CheckedRun(context.Background(), s, w, m)
				return err
			})
			if plain[0] == 0 || plain[2] != 0 {
				t.Fatalf("plain runs compiled %v kernels; want some first, none once steady", plain)
			}
			if !reflect.DeepEqual(checked, plain) {
				t.Errorf("checked runs compiled %v kernels per run, plain runs %v", checked, plain)
			}
		})
	}
}
