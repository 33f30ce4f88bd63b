package framework

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"igpucomm/internal/devices"
	"igpucomm/internal/heatmap"
	"igpucomm/internal/units"
)

func TestPerBufferHintsClassification(t *testing.T) {
	tests := []struct {
		name      string
		heat      heatmap.BufferHeat
		wantClass string
		wantModel string
	}{
		{"hot small pins zero-copy",
			heatmap.BufferHeat{Name: "lut", Size: 64 * units.KiB, HeatScore: 10}, BufferHot, "zc"},
		{"hot bulk stays cached",
			heatmap.BufferHeat{Name: "frame", Size: 4 * units.MiB, HeatScore: 6, HitRate: 0.9}, BufferHot, "sc"},
		{"cold bulk streams",
			heatmap.BufferHeat{Name: "video", Size: 8 * units.MiB, HeatScore: 1.0}, BufferCold, "sc"},
		{"cold small pins",
			heatmap.BufferHeat{Name: "flags", Size: 4 * units.KiB, HeatScore: 0.5}, BufferCold, "zc"},
		{"warm goes managed",
			heatmap.BufferHeat{Name: "mid", Size: 1 * units.MiB, HeatScore: 2.0}, BufferWarm, "um"},
		{"hot threshold is inclusive",
			heatmap.BufferHeat{Name: "edge", Size: 1 * units.KiB, HeatScore: hotScoreThreshold}, BufferHot, "zc"},
		{"cold threshold is exclusive",
			heatmap.BufferHeat{Name: "edge2", Size: 1 * units.MiB, HeatScore: coldScoreThreshold}, BufferWarm, "um"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			hints := PerBufferHints([]heatmap.BufferHeat{tt.heat})
			if len(hints) != 1 {
				t.Fatalf("got %d hints, want 1", len(hints))
			}
			h := hints[0]
			if h.Buffer != tt.heat.Name {
				t.Errorf("Buffer = %q, want %q", h.Buffer, tt.heat.Name)
			}
			if h.Class != tt.wantClass || h.Model != tt.wantModel {
				t.Errorf("class/model = %s/%s, want %s/%s", h.Class, h.Model, tt.wantClass, tt.wantModel)
			}
			if h.Reason == "" {
				t.Error("empty reason")
			}
		})
	}
}

func TestPerBufferHintsNilForEmpty(t *testing.T) {
	if PerBufferHints(nil) != nil {
		t.Error("PerBufferHints(nil) != nil")
	}
	if PerBufferHints([]heatmap.BufferHeat{}) != nil {
		t.Error("PerBufferHints(empty) != nil")
	}
}

// sampleHeatArtifact is a one-entry artifact with buffers and hints.
func sampleHeatArtifact() HeatArtifact {
	return HeatArtifact{Entries: []HeatEntry{{
		Platform: "jetson-tx2",
		Workload: "shwfs",
		Model:    "sc",
		Total:    12345,
		Buffers:  []heatmap.BufferHeat{{Name: "b", Kind: "host", Size: 4096, HeatScore: 5}},
		Hints:    PerBufferHints([]heatmap.BufferHeat{{Name: "b", Size: 4096, HeatScore: 5}}),
	}}}
}

func TestHeatArtifactRoundTrip(t *testing.T) {
	art := sampleHeatArtifact()
	var buf bytes.Buffer
	if err := SaveHeatArtifact(&buf, art); err != nil {
		t.Fatal(err)
	}
	got, err := LoadHeatArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.FormatVersion != heatFormatVersion {
		t.Errorf("FormatVersion = %d, want %d", got.FormatVersion, heatFormatVersion)
	}
	if len(got.Entries) != 1 || got.Entries[0].Model != "sc" ||
		len(got.Entries[0].Buffers) != 1 || len(got.Entries[0].Hints) != 1 {
		t.Errorf("round trip mangled entries: %+v", got.Entries)
	}
}

func TestLoadHeatArtifactRejectsBadInput(t *testing.T) {
	if _, err := LoadHeatArtifact(strings.NewReader(`{"format_version":99,"entries":[]}`)); err == nil {
		t.Error("foreign format version accepted")
	}
	if _, err := LoadHeatArtifact(strings.NewReader(`{"format_version":1,"entries":[],"extra":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := LoadHeatArtifact(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

// TestAdviseWorkloadAttachesHints checks the loop closure: when the advisory
// platform runs with heat enabled, AdviseWorkload's recommendation carries
// per-buffer hints; without heat it stays hint-free (and therefore
// JSON-identical to the pre-heat wire format).
func TestAdviseWorkloadAttachesHints(t *testing.T) {
	char, s := characterize(t, devices.TX2Name)
	w := computeWorkload()

	plain, err := AdviseWorkload(context.Background(), char, s, w, "sc")
	if err != nil {
		t.Fatal(err)
	}
	if plain.BufferHints != nil {
		t.Errorf("heat-free advice carries hints: %+v", plain.BufferHints)
	}

	s.EnableHeat()
	defer s.DisableHeat()
	hot, err := AdviseWorkload(context.Background(), char, s, w, "sc")
	if err != nil {
		t.Fatal(err)
	}
	if len(hot.BufferHints) == 0 {
		t.Fatal("heat-enabled advice carries no hints")
	}
	for _, h := range hot.BufferHints {
		if h.Buffer == "" || h.Class == "" || h.Model == "" || h.Reason == "" {
			t.Errorf("incomplete hint: %+v", h)
		}
	}
}
