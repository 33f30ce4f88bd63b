package framework

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"igpucomm/internal/devices"
)

// FuzzLoadCharacterization feeds arbitrary bytes — and mutations of every
// device's saved characterization — to the loader behind
// `advisor advise -char <file>` and advisord's -cache-dir warm start. The
// contract under fuzz: no input panics, and every input the loader accepts
// survives Save → Load unchanged, so a characterization that loads once
// loads the same after any number of saves.
func FuzzLoadCharacterization(f *testing.F) {
	for _, cfg := range devices.All() {
		// The goldens are SaveCharacterization output at TestParams.
		saved, err := os.ReadFile(charGoldenPath(cfg.Name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(saved)
	}
	f.Add([]byte(""))
	f.Add([]byte("{nope"))
	f.Add([]byte(`{"format_version":999,"characterization":{}}`))
	f.Add([]byte(`{"format_version":1,"characterization":null}`))
	f.Add([]byte(`{"format_version":1,"characterization":{"Platform":"x","PeakGPUThroughput":1}}`))
	f.Add([]byte(`{"format_version":1,"surprise":1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		char, err := LoadCharacterization(bytes.NewReader(data))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "framework: ") {
				t.Fatalf("untyped load error: %v", err)
			}
			return
		}
		var first bytes.Buffer
		if err := SaveCharacterization(&first, char); err != nil {
			t.Fatalf("accepted characterization does not save: %v", err)
		}
		again, err := LoadCharacterization(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("saved characterization does not reload: %v\n%s", err, first.Bytes())
		}
		if !reflect.DeepEqual(again, char) {
			t.Fatalf("round trip changed the characterization:\nloaded:   %+v\nreloaded: %+v", char, again)
		}
		var second bytes.Buffer
		if err := SaveCharacterization(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("second save differs:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
