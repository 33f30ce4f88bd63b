package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"igpucomm/internal/framework"
)

// runSweepCmd runs `advisor sweep -quick` with extra flags and returns its
// stdout.
func runSweepCmd(t *testing.T, extra ...string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("sweep runs the full quick-scale simulation")
	}
	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"sweep", "-quick", "-workers", "4"}, extra...), &stdout, &stderr); code != 0 {
		t.Fatalf("advisor sweep exited %d: %s", code, stderr.String())
	}
	return stdout.String()
}

// TestSweepTraceCoversAllCombinations is the acceptance check for
// `advisor sweep -trace`: the quick-scale 3 devices x 3 apps x 5 models
// sweep must export a loadable Chrome trace with at least 45 span events —
// one engine.explore.model span per measured point.
func TestSweepTraceCoversAllCombinations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	out := runSweepCmd(t, "-trace", path)
	if !strings.Contains(out, "trace written to "+path) {
		t.Fatalf("sweep did not report the trace:\n%s", out)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	spanEvents, points := 0, 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		spanEvents++
		if ev.Name == "engine.explore.model" {
			points++
		}
	}
	if spanEvents < 45 {
		t.Fatalf("exported trace has %d span events, want >= 45", spanEvents)
	}
	if points != 45 {
		t.Fatalf("got %d engine.explore.model spans, want 45 (3 devices x 3 apps x 5 models)", points)
	}
}

// TestSweepWithoutTracerStillRuns guards the nil-span path: the sweep must
// work untraced, paying only context lookups.
func TestSweepWithoutTracerStillRuns(t *testing.T) {
	out := runSweepCmd(t)
	if !strings.Contains(out, "swept 45 device x app x model points") {
		t.Fatalf("unexpected sweep summary:\n%s", out)
	}
	if strings.Contains(out, "trace written") {
		t.Fatalf("untraced sweep wrote a trace:\n%s", out)
	}
}

// TestSweepHeatArtifact runs the heat-enabled sweep and checks the written
// artifact: schema-versioned, loadable, one entry per measured combination,
// every entry carrying buffer rows and hints.
func TestSweepHeatArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heat.json")
	runSweepCmd(t, "-heatmap", path)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	art, err := framework.LoadHeatArtifact(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Entries) != 45 {
		t.Fatalf("artifact has %d entries, want 45 (3 devices x 3 apps x 5 models)", len(art.Entries))
	}
	for _, e := range art.Entries {
		if len(e.Buffers) == 0 || len(e.Hints) == 0 {
			t.Fatalf("entry %s/%s/%s missing buffers or hints", e.Platform, e.Workload, e.Model)
		}
	}
}
