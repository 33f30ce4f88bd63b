package perfbench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func validArtifact() Artifact {
	return Artifact{
		Schema:     SchemaVersion,
		CreatedAt:  "2026-08-05T12:00:00Z",
		Host:       CurrentHost(),
		Quick:      true,
		Iterations: 3,
		Scenarios: []ScenarioResult{
			{Name: "a", Component: "engine", Unit: "ns", Iterations: 3,
				MedianNS: 200, MADNS: 10, MinNS: 100, P95NS: 300,
				SamplesNS: []float64{100, 200, 300}},
			{Name: "b", Component: "comm", Unit: "ns", Iterations: 3,
				MedianNS: 2e6, MADNS: 1e4, MinNS: 1.9e6, P95NS: 2.2e6},
		},
	}
}

// TestArtifactWriteFileCreatesParentDirs checks WriteFile creates missing
// parent directories and writes exactly what Write encodes.
func TestArtifactWriteFileCreatesParentDirs(t *testing.T) {
	a := validArtifact()
	path := filepath.Join(t.TempDir(), "sub", "BENCH_test.json")
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := a.Write(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("WriteFile wrote %q, Write encodes %q", got, want.Bytes())
	}
}

func TestArtifactValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Artifact)
		want   string
	}{
		{"wrong schema", func(a *Artifact) { a.Schema = "igpucomm.perfbench/v0" }, "schema"},
		{"bad timestamp", func(a *Artifact) { a.CreatedAt = "yesterday" }, "created_at"},
		{"no scenarios", func(a *Artifact) { a.Scenarios = nil }, "no scenarios"},
		{"zero iterations", func(a *Artifact) { a.Iterations = 0 }, "iterations"},
		{"empty name", func(a *Artifact) { a.Scenarios[0].Name = "" }, "empty name"},
		{"duplicate name", func(a *Artifact) { a.Scenarios[1].Name = "a" }, "twice"},
		{"wrong unit", func(a *Artifact) { a.Scenarios[0].Unit = "ms" }, "unit"},
		{"negative stat", func(a *Artifact) { a.Scenarios[0].MADNS = -1 }, "finite"},
		{"unordered stats", func(a *Artifact) { a.Scenarios[0].MinNS = 1e9 }, "ordered"},
		{"sample count mismatch", func(a *Artifact) { a.Scenarios[0].SamplesNS = []float64{1} }, "samples"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := validArtifact()
			c.mutate(&a)
			err := a.Validate()
			if err == nil {
				t.Fatal("invalid artifact accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestWriteRefusesInvalidArtifact(t *testing.T) {
	a := validArtifact()
	a.Schema = "bogus"
	var buf bytes.Buffer
	if err := a.Write(&buf); err == nil {
		t.Fatal("invalid artifact written")
	}
	if buf.Len() != 0 {
		t.Errorf("partial artifact written: %q", buf.String())
	}
}

func TestArtifactName(t *testing.T) {
	at := time.Date(2026, 8, 5, 12, 30, 45, 0, time.UTC)
	if got := ArtifactName(at); got != "BENCH_20260805T123045Z.json" {
		t.Errorf("ArtifactName = %q", got)
	}
}

func TestFormatTableListsEveryScenario(t *testing.T) {
	out := FormatTable(validArtifact())
	for _, want := range []string{"a", "b", "median", "mad", "p95"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
