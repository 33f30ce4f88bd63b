package gpu_test

// Whole-run differentials for the batch-kernel simulator core: the
// framework's observable outputs — explorations and characterizations —
// must be byte-identical whether the GPU runs kernels through the compiled
// path or through the per-access reference executor it replaced. This is
// the whole-framework companion to the per-kernel fuzz and property suites
// of this package: it proves the compiled path changed no number the
// paper's tables are built from, across every device x app x model combo.
// The reference platform reaches the oracle through UseReference
// (export_test.go); no binary can.

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/framework"
	"igpucomm/internal/gpu"
	"igpucomm/internal/microbench"
	"igpucomm/internal/soc"
)

// referenceSoC returns a platform whose every launch runs the per-access
// reference executor.
func referenceSoC(cfg soc.Config) *soc.SoC {
	s := soc.New(cfg)
	gpu.UseReference(s.GPU)
	return s
}

// requireOracle fails unless the reference platform ref compiled and
// replayed nothing, so every launch on it ran the reference executor, while
// the compiled-path platform got replayed kernels.
func requireOracle(t *testing.T, ref, got *soc.SoC) {
	t.Helper()
	if w := ref.GPU.Work(); w != (gpu.Work{}) {
		t.Fatalf("reference platform reached the compiled path: %+v", w)
	}
	if got.GPU.Work().KernelsReplayed == 0 {
		t.Fatal("compiled-path platform replayed no kernel")
	}
}

// TestBatchVsReferenceExploration covers all 45 device x app x model combos:
// a reference platform (per-access executor, the seed's code path) and a
// compiled-path platform must produce byte-identical exploration JSON —
// every latency, every report field, every ranking tie-break.
func TestBatchVsReferenceExploration(t *testing.T) {
	models := comm.AllModels()
	for _, cfg := range devices.All() {
		for _, app := range catalog.Names() {
			cfg, app := cfg, app
			t.Run(cfg.Name+"/"+app, func(t *testing.T) {
				w, err := catalog.ByName(app, catalog.Quick)
				if err != nil {
					t.Fatal(err)
				}
				ref, s := referenceSoC(cfg), soc.New(cfg)
				want, err := framework.Explore(ref, w, models)
				if err != nil {
					t.Fatal(err)
				}
				got, err := framework.Explore(s, w, models)
				if err != nil {
					t.Fatal(err)
				}
				requireOracle(t, ref, s)
				wantJSON, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				gotJSON, err := json.Marshal(got)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotJSON, wantJSON) {
					t.Errorf("batch exploration diverges from reference:\nreference: %s\nbatch:     %s",
						wantJSON, gotJSON)
				}
			})
		}
	}
}

// TestBatchVsReferenceCharacterization holds the microbenchmark-driven half
// of the framework to the same standard: MB1–MB3 characterization through
// the persist serialization (so every field counts) must not move by a byte
// when the compiled path replaces the reference executor. Besides every
// device at TestParams, it covers jetson-tx2 with MB2Threads = 3000, which
// does not divide MB2's array: the sweep kernel's index wraps inside a
// warp, so the kernel stays undeclared (microbench's
// TestMB2UndividedStaysUndeclared) and compiles lane by lane.
func TestBatchVsReferenceCharacterization(t *testing.T) {
	type tc struct {
		name string
		cfg  soc.Config
		p    microbench.Params
	}
	var cases []tc
	for _, cfg := range devices.All() {
		cases = append(cases, tc{cfg.Name, cfg, microbench.TestParams()})
	}
	tx2, err := devices.ByName(devices.TX2Name)
	if err != nil {
		t.Fatal(err)
	}
	undivided := microbench.TestParams()
	undivided.MB2Threads = 3000
	cases = append(cases, tc{devices.TX2Name + "-mb2-threads-3000", tx2, undivided})
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			ref, s := referenceSoC(c.cfg), soc.New(c.cfg)
			want, err := framework.Characterize(context.Background(), ref, c.p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := framework.Characterize(context.Background(), s, c.p)
			if err != nil {
				t.Fatal(err)
			}
			requireOracle(t, ref, s)
			var wantBuf, gotBuf bytes.Buffer
			if err := framework.SaveCharacterization(&wantBuf, want); err != nil {
				t.Fatal(err)
			}
			if err := framework.SaveCharacterization(&gotBuf, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
				t.Errorf("batch characterization of %s diverges from reference:\nreference: %s\nbatch:     %s",
					c.name, wantBuf.Bytes(), gotBuf.Bytes())
			}
		})
	}
}

// TestBatchVsReferenceRepeatedRuns reruns one combo three times on the SAME
// compiled-path platform (soc.ResetState between runs, as the engine's pool
// does) and requires every rerun to match the reference answer — warm
// compiled-kernel caches must replay, not drift.
func TestBatchVsReferenceRepeatedRuns(t *testing.T) {
	cfg := devices.All()[0]
	w, err := catalog.ByName(catalog.Names()[0], catalog.Quick)
	if err != nil {
		t.Fatal(err)
	}
	models := comm.AllModels()

	ref := referenceSoC(cfg)
	want, err := framework.Explore(ref, w, models)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	s := soc.New(cfg)
	for i := 0; i < 3; i++ {
		got, err := framework.Explore(s, w, models)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("run %d on a reused platform diverges from reference:\nreference: %s\nbatch:     %s",
				i, wantJSON, gotJSON)
		}
	}
	requireOracle(t, ref, s)
}
