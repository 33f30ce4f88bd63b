package igpucomm

import (
	"testing"

	"igpucomm/internal/cpu"
	"igpucomm/internal/gpu"
	"igpucomm/internal/isa"
	"igpucomm/internal/microbench"
)

func facadeWorkload() Workload {
	const n = 8192
	return Workload{
		Name: "facade",
		In:   []BufferSpec{{Name: "in", Size: n * 4}},
		Out:  []BufferSpec{{Name: "out", Size: n * 4}},
		CPUTask: func(c *cpu.CPU, lay Layout) {
			base := lay.Addr("in")
			for i := int64(0); i < n; i += 16 {
				c.Store(base+i*4, 4)
			}
		},
		MakeKernel: func(lay Layout, _ int) gpu.Kernel {
			in, out := lay.Addr("in"), lay.Addr("out")
			return gpu.Kernel{Name: "k", Threads: n, Program: func(tid int, p *isa.Program) {
				p.Ld(in+int64(tid)*4, 4)
				p.Compute(isa.FMA, 32)
				p.St(out+int64(tid)*4, 4)
			}}
		},
		Warmup: 1,
	}
}

func TestPlatformsAndNewSoC(t *testing.T) {
	names := Platforms()
	if len(names) != 3 {
		t.Fatalf("platforms = %v, want 3", names)
	}
	for _, name := range names {
		s, err := NewSoC(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("SoC name %q != %q", s.Name(), name)
		}
		cfg, err := PlatformConfig(name)
		if err != nil || cfg.Name != name {
			t.Errorf("PlatformConfig(%q) = %v, %v", name, cfg.Name, err)
		}
	}
	if _, err := NewSoC("rpi5"); err == nil {
		t.Error("unknown platform accepted")
	}
}

func TestFacadeRunAllModels(t *testing.T) {
	s, err := NewSoC(TX2Name)
	if err != nil {
		t.Fatal(err)
	}
	w := facadeWorkload()
	for _, m := range []Model{StandardCopy, UnifiedMemory, ZeroCopy} {
		rep, err := Run(s, w, m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if rep.Total <= 0 || rep.Model != m.Name() {
			t.Errorf("%s: bad report %+v", m.Name(), rep)
		}
	}
}

func TestFacadeAdviceFlow(t *testing.T) {
	s, err := NewSoC(XavierName)
	if err != nil {
		t.Fatal(err)
	}
	char, err := Characterize(s, microbench.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Advise(char, s, facadeWorkload(), "sc")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Suggested == "" || rec.Rationale == "" {
		t.Errorf("incomplete recommendation: %+v", rec)
	}
	prof, err := CollectProfile(s, facadeWorkload(), StandardCopy)
	if err != nil {
		t.Fatal(err)
	}
	if prof.KernelTime <= 0 {
		t.Error("profile missing kernel time")
	}
	if _, err := ModelByName("zc"); err != nil {
		t.Error(err)
	}
	if _, err := ModelByName("nvlink"); err == nil {
		t.Error("unknown model accepted")
	}
}

// TestGoldenDecisions is the end-to-end integration check: for every (board,
// case-study) pair the framework must make the same call the paper's
// evaluation reaches, and the measured model ordering must agree with it.
func TestGoldenDecisions(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale integration")
	}
	type golden struct {
		board      string
		app        string // "shwfs" or "orbslam"
		current    string
		wantModel  string
		zcWinsOver bool // whether measured ZC should beat measured SC
	}
	cases := []golden{
		{NanoName, "shwfs", "sc", "sc", false},
		{TX2Name, "shwfs", "sc", "sc", false},
		{XavierName, "shwfs", "sc", "zc", true},
		{TX2Name, "orbslam", "zc", "sc", false},
		{XavierName, "orbslam", "sc", "zc", true},
	}
	chars := map[string]Characterization{}
	for _, tc := range cases {
		s, err := NewSoC(tc.board)
		if err != nil {
			t.Fatal(err)
		}
		char, ok := chars[tc.board]
		if !ok {
			char, err = Characterize(s, DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			chars[tc.board] = char
		}
		w, err := CaseStudy(tc.app)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := Advise(char, s, w, tc.current)
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.board, tc.app, err)
		}
		if rec.Suggested != tc.wantModel {
			t.Errorf("%s/%s from %s: suggested %q, want %q (%s)",
				tc.board, tc.app, tc.current, rec.Suggested, tc.wantModel, rec.Rationale)
		}
		// Cross-check the advice against measurement.
		scRep, err := Run(s, w, StandardCopy)
		if err != nil {
			t.Fatal(err)
		}
		zcRep, err := Run(s, w, ZeroCopy)
		if err != nil {
			t.Fatal(err)
		}
		zcWins := zcRep.Total < scRep.Total
		if zcWins != tc.zcWinsOver {
			t.Errorf("%s/%s: measured ZC-wins=%v, expected %v (sc %v vs zc %v)",
				tc.board, tc.app, zcWins, tc.zcWinsOver, scRep.Total, zcRep.Total)
		}
	}
}

// TestFullMatrix runs every case study on every platform under every model —
// the everything-still-runs integration sweep.
func TestFullMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale integration")
	}
	apps := []string{"shwfs", "orbslam", "lanedet"}
	models := []string{"sc", "sc-async", "um", "zc", "hybrid"}
	for _, board := range Platforms() {
		s, err := NewSoC(board)
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range apps {
			w, err := CaseStudy(app)
			if err != nil {
				t.Fatal(err)
			}
			for _, model := range models {
				m, err := ModelByName(model)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := Run(s, w, m)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", board, app, model, err)
				}
				if rep.Total <= 0 || rep.KernelTime <= 0 {
					t.Errorf("%s/%s/%s: degenerate report %v", board, app, model, rep.Total)
				}
				if rep.Model != model || rep.Platform != board {
					t.Errorf("%s/%s/%s: identity fields wrong", board, app, model)
				}
			}
		}
	}
}
