package perfbench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"igpucomm/internal/buildinfo"
)

// SchemaVersion identifies the artifact format. Consumers must reject
// artifacts whose schema field differs: the trajectory is only comparable
// within one schema generation.
const SchemaVersion = "igpucomm.perfbench/v1"

// Host records the machine facts a reader needs before trusting a
// cross-artifact comparison — numbers from different hosts are a hardware
// comparison, not a regression signal.
type Host struct {
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// CurrentHost snapshots the running machine.
func CurrentHost() Host {
	return Host{
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// ScenarioResult is one scenario's measured trajectory point. All timing
// fields are nanoseconds per iteration.
type ScenarioResult struct {
	Name      string `json:"name"`
	Component string `json:"component"`
	Doc       string `json:"doc,omitempty"`
	// Unit is always "ns"; it is recorded so a future schema bump can
	// change it without ambiguity in old artifacts.
	Unit       string  `json:"unit"`
	Iterations int     `json:"iterations"`
	MedianNS   float64 `json:"median_ns"`
	MADNS      float64 `json:"mad_ns"`
	MinNS      float64 `json:"min_ns"`
	P95NS      float64 `json:"p95_ns"`
	// SamplesNS preserves the raw per-iteration timings so later analyses
	// can recompute any statistic.
	SamplesNS []float64 `json:"samples_ns,omitempty"`
}

// Artifact is one complete harness run: the BENCH_<timestamp>.json payload.
type Artifact struct {
	Schema     string           `json:"schema"`
	CreatedAt  string           `json:"created_at"` // RFC3339 UTC
	Build      buildinfo.Info   `json:"build"`
	Host       Host             `json:"host"`
	Quick      bool             `json:"quick"`
	Iterations int              `json:"iterations"`
	Scenarios  []ScenarioResult `json:"scenarios"`
}

// Validate checks the artifact is internally consistent: correct schema,
// parseable timestamp, unique scenario names, and per-scenario statistics
// that are finite, non-negative and ordered (min <= median <= p95).
func (a Artifact) Validate() error {
	if a.Schema != SchemaVersion {
		return fmt.Errorf("perfbench: artifact schema %q, want %q", a.Schema, SchemaVersion)
	}
	if _, err := time.Parse(time.RFC3339, a.CreatedAt); err != nil {
		return fmt.Errorf("perfbench: artifact created_at: %w", err)
	}
	if a.Iterations <= 0 {
		return fmt.Errorf("perfbench: artifact iterations = %d, want > 0", a.Iterations)
	}
	if len(a.Scenarios) == 0 {
		return fmt.Errorf("perfbench: artifact has no scenarios")
	}
	seen := make(map[string]bool, len(a.Scenarios))
	for _, s := range a.Scenarios {
		if s.Name == "" {
			return fmt.Errorf("perfbench: artifact scenario with empty name")
		}
		if seen[s.Name] {
			return fmt.Errorf("perfbench: artifact scenario %q appears twice", s.Name)
		}
		seen[s.Name] = true
		if s.Unit != "ns" {
			return fmt.Errorf("perfbench: scenario %q unit %q, want ns", s.Name, s.Unit)
		}
		if s.Iterations <= 0 {
			return fmt.Errorf("perfbench: scenario %q iterations = %d, want > 0", s.Name, s.Iterations)
		}
		for _, v := range []struct {
			what string
			val  float64
		}{
			{"median_ns", s.MedianNS},
			{"mad_ns", s.MADNS},
			{"min_ns", s.MinNS},
			{"p95_ns", s.P95NS},
		} {
			if math.IsNaN(v.val) || math.IsInf(v.val, 0) || v.val < 0 {
				return fmt.Errorf("perfbench: scenario %q %s = %v, want finite and >= 0", s.Name, v.what, v.val)
			}
		}
		if s.MinNS > s.MedianNS || s.MedianNS > s.P95NS {
			return fmt.Errorf("perfbench: scenario %q statistics not ordered: min %v, median %v, p95 %v",
				s.Name, s.MinNS, s.MedianNS, s.P95NS)
		}
		if len(s.SamplesNS) > 0 && len(s.SamplesNS) != s.Iterations {
			return fmt.Errorf("perfbench: scenario %q has %d samples for %d iterations",
				s.Name, len(s.SamplesNS), s.Iterations)
		}
	}
	return nil
}

// Scenario returns the named scenario result and whether it exists.
func (a Artifact) Scenario(name string) (ScenarioResult, bool) {
	for _, s := range a.Scenarios {
		if s.Name == name {
			return s, true
		}
	}
	return ScenarioResult{}, false
}

// Write encodes the artifact as indented JSON. The artifact is validated
// first so an invalid run can never poison the trajectory on disk.
func (a Artifact) Write(w io.Writer) error {
	if err := a.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// WriteFile writes the artifact to path, creating parent directories.
func (a Artifact) WriteFile(path string) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("perfbench: %w", err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("perfbench: %w", err)
	}
	if err := a.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ArtifactName returns the conventional artifact file name for a run that
// started at t: BENCH_<UTC timestamp>.json.
func ArtifactName(t time.Time) string {
	return "BENCH_" + t.UTC().Format("20060102T150405Z") + ".json"
}

// FormatTable renders the human-readable run summary.
func FormatTable(a Artifact) string {
	var b strings.Builder
	mode := "full"
	if a.Quick {
		mode = "quick"
	}
	fmt.Fprintf(&b, "perfbench %s run · %s · %s · %d iterations/scenario\n",
		mode, a.CreatedAt, a.Build.String(), a.Iterations)
	fmt.Fprintf(&b, "%-22s %-10s %5s %12s %12s %12s %12s\n",
		"scenario", "component", "iters", "median", "mad", "min", "p95")
	for _, s := range a.Scenarios {
		fmt.Fprintf(&b, "%-22s %-10s %5d %12s %12s %12s %12s\n",
			s.Name, s.Component, s.Iterations,
			fmtNS(s.MedianNS), fmtNS(s.MADNS), fmtNS(s.MinNS), fmtNS(s.P95NS))
	}
	return b.String()
}

// fmtNS renders nanoseconds with a duration-style unit.
func fmtNS(ns float64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
