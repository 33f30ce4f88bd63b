package framework

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzLoadHeatArtifact feeds arbitrary bytes — and mutations of saved
// artifacts — to the loader of the per-buffer heat report `advisor sweep
// -heatmap` writes. The contract under fuzz: no input panics, a rejected
// input gets a typed error, and every input the loader accepts survives
// Save → Load unchanged.
func FuzzLoadHeatArtifact(f *testing.F) {
	var saved bytes.Buffer
	if err := SaveHeatArtifact(&saved, sampleHeatArtifact()); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes())
	// The engine's heat golden: a full multi-entry artifact.
	golden, err := os.ReadFile(filepath.Join("..", "engine", "testdata", "apu_heat.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(""))
	f.Add([]byte("not json"))
	f.Add([]byte(`{"format_version":99,"entries":[]}`))
	f.Add([]byte(`{"format_version":1,"entries":[],"extra":1}`))
	f.Add([]byte(`{"format_version":1,"entries":[{"buffers":[],"hints":[]}]}`))
	f.Add([]byte(`{"format_version":1,"entries":null}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		art, err := LoadHeatArtifact(bytes.NewReader(data))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "framework: ") {
				t.Fatalf("untyped load error: %v", err)
			}
			return
		}
		var first bytes.Buffer
		if err := SaveHeatArtifact(&first, art); err != nil {
			t.Fatalf("accepted artifact does not save: %v", err)
		}
		again, err := LoadHeatArtifact(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("saved artifact does not reload: %v\n%s", err, first.Bytes())
		}
		if !reflect.DeepEqual(again, art) {
			t.Fatalf("round trip changed the artifact:\nloaded:   %+v\nreloaded: %+v", art, again)
		}
	})
}
