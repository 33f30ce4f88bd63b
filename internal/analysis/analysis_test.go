package analysis

import (
	"strconv"
	"strings"
	"testing"
)

// lintTree writes files (slash-separated path -> source) into a temp module
// and runs the one named rule over it with the default config.
func lintTree(t *testing.T, rule string, files map[string]string) []Finding {
	t.Helper()
	files["go.mod"] = "module demo\n\ngo 1.22\n"
	cfg := DefaultConfig()
	got, err := RunRepo(writeTree(t, files), &cfg, []string{rule})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// lintSource writes src as a single file in package directory dir of a temp
// module and runs the named rule over it.
func lintSource(t *testing.T, rule, dir, src string) []Finding {
	t.Helper()
	return lintTree(t, rule, map[string]string{dir + "/x.go": src})
}

func kinds(fs []Finding) map[string]int {
	m := map[string]int{}
	for _, f := range fs {
		m[f.Rule]++
	}
	return m
}

func TestRawAddrFlaggedOutsideMemorySystem(t *testing.T) {
	src := `package apps
func f(b struct{ Addr, Size int64 }) int64 { return b.Addr + 64 }
`
	got := lintSource(t, "rawaddr", "internal/apps/demo", src)
	if len(got) != 1 || kinds(got)["rawaddr"] != 1 {
		t.Fatalf("want 1 rawaddr finding, got %v", got)
	}
}

func TestRawAddrAllowedInMemorySystem(t *testing.T) {
	src := `package mmu
func f(b struct{ Addr, Size int64 }) int64 { return b.Addr + 64 }
`
	if got := lintSource(t, "rawaddr", "internal/mmu", src); len(got) != 0 {
		t.Fatalf("memory system flagged: %v", got)
	}
}

func TestRawAddrIgnoresLayoutAccessor(t *testing.T) {
	src := `package apps
type layout struct{}
func (layout) Addr(string) int64 { return 0 }
func f(lay layout, i int64) int64 { return lay.Addr("frame") + i*4 }
`
	if got := lintSource(t, "rawaddr", "internal/apps/demo", src); len(got) != 0 {
		t.Fatalf("Layout accessor flagged: %v", got)
	}
}

func TestUnitsMixFlagged(t *testing.T) {
	src := `package apps
func f(copyTime, dramBytes int64) int64 { return copyTime + dramBytes }
`
	got := lintSource(t, "unitsmix", "internal/apps/demo", src)
	if len(got) != 1 || kinds(got)["unitsmix"] != 1 {
		t.Fatalf("want 1 unitsmix finding, got %v", got)
	}
}

func TestUnitsMixAllowsSameDomainAndRates(t *testing.T) {
	src := `package apps
func f(copyTime, kernelTime, dramBytes, copyBytes int64) int64 {
	_ = copyTime + kernelTime          // latency + latency: fine
	_ = dramBytes - copyBytes          // bytes - bytes: fine
	return dramBytes / (copyTime + 1)  // conversion through a rate: fine
}
`
	if got := lintSource(t, "unitsmix", "internal/apps/demo", src); len(got) != 0 {
		t.Fatalf("legitimate arithmetic flagged: %v", got)
	}
}

func TestValidateWrapFlagged(t *testing.T) {
	src := `package demo
import "fmt"
type C struct{}
func (C) Validate() error { return fmt.Errorf("bad value %d", 3) }
`
	got := lintSource(t, "validatewrap", "internal/demo", src)
	if len(got) != 1 || kinds(got)["validatewrap"] != 1 {
		t.Fatalf("want 1 validatewrap finding, got %v", got)
	}
}

func TestValidateWrapAcceptsPrefixedForms(t *testing.T) {
	src := `package demo
import ( "errors"; "fmt" )
type C struct{}
func (C) Validate() error {
	if false { return errors.New("demo: empty") }
	if false { return fmt.Errorf("demo %s: bad", "x") }
	return fmt.Errorf("demo: bad value %d", 3)
}
func helper() error { return fmt.Errorf("anything goes outside Validate") }
`
	if got := lintSource(t, "validatewrap", "internal/demo", src); len(got) != 0 {
		t.Fatalf("prefixed errors flagged: %v", got)
	}
}

func TestTestFilesSkipped(t *testing.T) {
	src := `package apps
func f(b struct{ Addr int64 }) int64 { return b.Addr + 64 }
`
	got := lintTree(t, "rawaddr", map[string]string{"internal/apps/x_test.go": src})
	if len(got) != 0 {
		t.Fatalf("test file linted: %v", got)
	}
}

// TestRepositoryIsClean is the gate itself: the repo this analyzer ships in
// must pass the full type-aware rule set.
func TestRepositoryIsClean(t *testing.T) {
	cfg := DefaultConfig()
	got, err := RunRepo(repoRoot(t), &cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range got {
		t.Errorf("%s", f)
	}
}

// TestNoOrphanInternalPackages keeps shadow implementations from growing
// back: every internal package must be imported by at least one non-test
// package of the module (a binary, an example, the facade, the benchmark or
// another internal package). internal/dst is exempt because it is a test
// harness by design: only its own tests drive it.
func TestNoOrphanInternalPackages(t *testing.T) {
	m, err := LoadModule(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	exempt := map[string]bool{"internal/dst": true}
	imported := map[string]bool{}
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, spec := range f.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				imported[path] = true
			}
		}
	}
	for _, pkg := range m.Packages {
		if !strings.HasPrefix(pkg.Dir, "internal/") || exempt[pkg.Dir] {
			continue
		}
		if !imported[pkg.Path] {
			t.Errorf("%s is imported by no non-test package: delete it or use it", pkg.Dir)
		}
	}
}
