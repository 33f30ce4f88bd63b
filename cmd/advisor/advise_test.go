package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestAdviseGolden pins the advise command's stdout end to end for a
// non-SC current model, the path that needs both the classification and
// the current-model profile: the recommendation, the stability line built
// from the same two profiles, and the -verify ranking. Refresh with
// GOLDEN_UPDATE=1 only after an intentional simulator or advice change.
func TestAdviseGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"advise", "-quick", "-device", "jetson-tx2", "-app", "orbslam", "-current", "zc", "-verify"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("advisor advise exited %d: %s", code, stderr.String())
	}
	path := filepath.Join("testdata", "advise_tx2_orbslam_zc.golden")
	if os.Getenv("GOLDEN_UPDATE") == "1" {
		if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with GOLDEN_UPDATE=1 to create): %v", err)
	}
	if got := stdout.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("advise stdout diverges from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
