package framework

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/microbench"
	"igpucomm/internal/soc"
)

// saveChar is the persist serialization of a characterization: the bytes
// the characterization goldens compare, so every field counts.
func saveChar(t *testing.T, char Characterization) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveCharacterization(&buf, char); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// charGoldenPath is the committed characterization of one catalog device at
// microbench.TestParams.
func charGoldenPath(device string) string {
	return filepath.Join("testdata", "characterize_"+device+".json")
}

// checkCharGolden compares got with the device's golden.
func checkCharGolden(t *testing.T, device string, got []byte) {
	t.Helper()
	path := charGoldenPath(device)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run TestGoldenCharacterize with GOLDEN_UPDATE=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("characterization of %s diverges from golden %s:\ngot:  %s\nwant: %s", device, path, got, want)
	}
}

// TestGoldenCharacterize pins the exact characterization of every catalog
// device at TestParams. Refresh with GOLDEN_UPDATE=1 only after an
// intentional simulator or micro-benchmark change.
func TestGoldenCharacterize(t *testing.T) {
	for _, cfg := range devices.All() {
		t.Run(cfg.Name, func(t *testing.T) {
			char, err := Characterize(context.Background(), soc.New(cfg), microbench.TestParams())
			if err != nil {
				t.Fatal(err)
			}
			got := saveChar(t, char)
			if os.Getenv("GOLDEN_UPDATE") == "1" {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(charGoldenPath(cfg.Name), got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			checkCharGolden(t, cfg.Name, got)
		})
	}
}

// TestCharacterizeOrderIndependent runs the plan with every stage's jobs in
// reverse order on one platform and requires the golden bytes. Each job
// resets the platform state before it measures, so neither the job order
// nor whatever ran on the platform before can reach a result; the serial
// and the parallel runners both rely on that.
func TestCharacterizeOrderIndependent(t *testing.T) {
	for _, cfg := range devices.All() {
		t.Run(cfg.Name, func(t *testing.T) {
			s := soc.New(cfg)
			reversed := func(ctx context.Context, jobs []microbench.Job) error {
				for i := len(jobs) - 1; i >= 0; i-- {
					if err := jobs[i](ctx, s); err != nil {
						return err
					}
				}
				return nil
			}
			res, err := microbench.Characterize(context.Background(), cfg.Name, cfg.IOCoherent,
				microbench.TestParams(), reversed)
			if err != nil {
				t.Fatal(err)
			}
			checkCharGolden(t, cfg.Name, saveChar(t, NewCharacterization(res)))
		})
	}
}

// TestGoldenExplore pins the full Exploration — every model's Report,
// energy and DRAM/copy traffic included, and the ranking — of every catalog
// application under every communication model on every catalog device at
// catalog.Micro. Refresh with GOLDEN_UPDATE=1 only after an intentional
// simulator or model change.
func TestGoldenExplore(t *testing.T) {
	for _, cfg := range devices.All() {
		t.Run(cfg.Name, func(t *testing.T) {
			var exps []Exploration
			for _, app := range catalog.Names() {
				w, err := catalog.ByName(app, catalog.Micro)
				if err != nil {
					t.Fatal(err)
				}
				exp, err := Explore(soc.New(cfg), w, comm.AllModels())
				if err != nil {
					t.Fatal(err)
				}
				exps = append(exps, exp)
			}
			got, err := json.MarshalIndent(exps, "", "\t")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "explore_"+cfg.Name+".json")
			if os.Getenv("GOLDEN_UPDATE") == "1" {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run TestGoldenExplore with GOLDEN_UPDATE=1 to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("exploration on %s diverges from golden %s:\ngot:  %s\nwant: %s", cfg.Name, path, got, want)
			}
		})
	}
}
