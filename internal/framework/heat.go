package framework

import (
	"encoding/json"
	"fmt"
	"io"

	"igpucomm/internal/heatmap"
	"igpucomm/internal/units"
)

// This file closes the heat-map loop: per-buffer heat (internal/heatmap,
// recorded by the cache simulator) becomes per-buffer placement hints and a
// schema-versioned artifact the advisor binary and advisord endpoint emit.

// Buffer heat classes.
const (
	BufferHot  = "hot"
	BufferWarm = "warm"
	BufferCold = "cold"
)

// Heat-classification thresholds. HeatScore is accessed bytes per buffer
// byte — effectively the buffer's reuse factor within one iteration.
const (
	// hotScoreThreshold: the iteration touches the buffer several times
	// over — communication latency for it is on the critical path.
	hotScoreThreshold = 4.0
	// coldScoreThreshold: at most ~one streaming pass.
	coldScoreThreshold = 1.5
	// smallBufferBytes splits "pin it" from "stream it": below this the
	// pinned path's narrow transactions stay cheaper than per-iteration
	// copy setup; above it bulk copy bandwidth wins.
	smallBufferBytes = 512 * units.KiB
)

// BufferHint is one buffer's placement advice derived from its heat: the
// mixed-model refinement of the whole-workload recommendation (hot small
// buffers → ZC, cold bulk → SC).
type BufferHint struct {
	Buffer string `json:"buffer"`
	// Class is "hot", "warm" or "cold".
	Class string `json:"class"`
	// Model is the per-buffer placement suggestion ("zc", "sc", "um").
	Model string `json:"model"`
	// Reason is the human-readable justification.
	Reason string `json:"reason"`
}

// PerBufferHints classifies each buffer hot/warm/cold from its heat and
// derives a per-buffer model hint. Returns nil for nil input (heat profiling
// off), so attaching hints to a recommendation never changes default output.
func PerBufferHints(heats []heatmap.BufferHeat) []BufferHint {
	if len(heats) == 0 {
		return nil
	}
	out := make([]BufferHint, 0, len(heats))
	for _, h := range heats {
		hint := BufferHint{Buffer: h.Name}
		small := h.Size <= smallBufferBytes
		switch {
		case h.HeatScore >= hotScoreThreshold:
			hint.Class = BufferHot
		case h.HeatScore < coldScoreThreshold:
			hint.Class = BufferCold
		default:
			hint.Class = BufferWarm
		}
		switch {
		case hint.Class == BufferHot && small:
			hint.Model = "zc"
			hint.Reason = fmt.Sprintf(
				"hot small buffer (%.1fx reuse over %d bytes): pin it zero-copy and skip the per-iteration copies",
				h.HeatScore, h.Size)
		case hint.Class == BufferHot:
			hint.Model = "sc"
			hint.Reason = fmt.Sprintf(
				"hot bulk working set (%.1fx reuse, %.0f%% hit rate): keep it cacheable behind software coherence",
				h.HeatScore, h.HitRate*100)
		case hint.Class == BufferCold && !small:
			hint.Model = "sc"
			hint.Reason = fmt.Sprintf(
				"cold bulk data (%.1fx reuse over %d bytes): stream it through the copy engine at bulk bandwidth",
				h.HeatScore, h.Size)
		case hint.Class == BufferCold:
			hint.Model = "zc"
			hint.Reason = fmt.Sprintf(
				"cold small buffer (%d bytes): copy setup would dominate; pin it zero-copy",
				h.Size)
		default:
			hint.Model = "um"
			hint.Reason = fmt.Sprintf(
				"moderate reuse (%.1fx): let the unified-memory driver place it on demand",
				h.HeatScore)
		}
		out = append(out, hint)
	}
	return out
}

// heatFormatVersion versions the HeatArtifact schema.
const heatFormatVersion = 1

// HeatEntry is one model run's heat snapshot within a HeatArtifact.
type HeatEntry struct {
	Platform string               `json:"platform"`
	Workload string               `json:"workload"`
	Model    string               `json:"model"`
	Total    units.Latency        `json:"total_ns"`
	Buffers  []heatmap.BufferHeat `json:"buffers"`
	Hints    []BufferHint         `json:"hints,omitempty"`
}

// HeatArtifact is the schema-versioned per-buffer heat report `advisor
// -heatmap` writes and `/v1/heatmap` serves.
type HeatArtifact struct {
	FormatVersion int         `json:"format_version"`
	Entries       []HeatEntry `json:"entries"`
}

// HeatEntriesFromExploration extracts one HeatEntry per ranked candidate
// that carries heat data (candidates from heat-disabled runs are skipped),
// attaching per-buffer hints to each.
func HeatEntriesFromExploration(exp Exploration) []HeatEntry {
	var out []HeatEntry
	for _, c := range exp.Ranked {
		if len(c.Report.BufferHeat) == 0 {
			continue
		}
		out = append(out, HeatEntry{
			Platform: exp.Platform,
			Workload: exp.Workload,
			Model:    c.Model,
			Total:    c.Total,
			Buffers:  c.Report.BufferHeat,
			Hints:    PerBufferHints(c.Report.BufferHeat),
		})
	}
	return out
}

// SaveHeatArtifact writes the artifact as indented, schema-versioned JSON.
func SaveHeatArtifact(w io.Writer, a HeatArtifact) error {
	a.FormatVersion = heatFormatVersion
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a); err != nil {
		return fmt.Errorf("framework: save heat artifact: %w", err)
	}
	return nil
}

// LoadHeatArtifact reads a saved artifact, rejecting unknown fields and
// foreign format versions. An empty hints list loads as none, the form
// SaveHeatArtifact writes it in, so a loaded artifact saves and reloads
// unchanged.
func LoadHeatArtifact(r io.Reader) (HeatArtifact, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var a HeatArtifact
	if err := dec.Decode(&a); err != nil {
		return HeatArtifact{}, fmt.Errorf("framework: load heat artifact: %w", err)
	}
	if a.FormatVersion != heatFormatVersion {
		return HeatArtifact{}, fmt.Errorf("framework: heat artifact format version %d, want %d",
			a.FormatVersion, heatFormatVersion)
	}
	for i := range a.Entries {
		if len(a.Entries[i].Hints) == 0 {
			a.Entries[i].Hints = nil
		}
	}
	return a, nil
}
