package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestParseConfigDefaults(t *testing.T) {
	c, err := parseConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.addr != ":8025" || c.drain != 30*time.Second || c.requestTimeout != 30*time.Second {
		t.Errorf("defaults = %+v", c)
	}
	if c.breakerThreshold != 5 || c.breakerCooldown != 10*time.Second {
		t.Errorf("breaker defaults = %d / %v", c.breakerThreshold, c.breakerCooldown)
	}
}

func TestParseConfigRejectsBadValues(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"zero drain", []string{"-drain-timeout", "0s"}, "-drain-timeout"},
		{"negative drain", []string{"-drain-timeout", "-5s"}, "-drain-timeout"},
		{"zero request timeout", []string{"-request-timeout", "0s"}, "-request-timeout"},
		{"negative request timeout", []string{"-request-timeout", "-1s"}, "-request-timeout"},
		{"negative max-concurrent", []string{"-max-concurrent", "-1"}, "-max-concurrent"},
		{"negative max-queue", []string{"-max-queue", "-2"}, "-max-queue"},
		{"zero breaker threshold", []string{"-breaker-threshold", "0"}, "-breaker-threshold"},
		{"zero breaker cooldown", []string{"-breaker-cooldown", "0s"}, "-breaker-cooldown"},
		{"debug addr duplicates addr", []string{"-addr", ":9000", "-debug-addr", ":9000"}, "-debug-addr"},
		{"garbage fault spec", []string{"-faults", "nonsense"}, "-faults"},
		{"unknown fault mode", []string{"-faults", "engine.characterize:explode"}, "-faults"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseConfig(tc.args)
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %s", err, tc.want)
			}
		})
	}
}

func TestParseConfigFlagErrorsAreMarked(t *testing.T) {
	_, err := parseConfig([]string{"-no-such-flag"})
	if !errors.Is(err, errFlagParse) {
		t.Errorf("parse failure not marked: %v", err)
	}
}

func TestParseConfigCacheDir(t *testing.T) {
	// A missing directory is fine: the engine's first store creates it.
	if _, err := parseConfig([]string{"-cache-dir", filepath.Join(t.TempDir(), "nope")}); err != nil {
		t.Errorf("missing cache dir rejected: %v", err)
	}
	// An existing directory is fine.
	if _, err := parseConfig([]string{"-cache-dir", t.TempDir()}); err != nil {
		t.Errorf("writable cache dir rejected: %v", err)
	}
	// A file is not a cache directory.
	f := filepath.Join(t.TempDir(), "afile")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := parseConfig([]string{"-cache-dir", f}); err == nil {
		t.Error("file accepted as -cache-dir")
	}
	// An unwritable directory is rejected (root bypasses permission bits,
	// so this leg only runs unprivileged).
	if os.Geteuid() != 0 {
		dir := t.TempDir()
		if err := os.Chmod(dir, 0o555); err != nil {
			t.Fatal(err)
		}
		if _, err := parseConfig([]string{"-cache-dir", dir}); err == nil {
			t.Error("unwritable directory accepted as -cache-dir")
		}
	}
}

func TestFaultPlanFlagBeatsEnv(t *testing.T) {
	t.Setenv("FAULTS", "engine.explore:error")
	c, err := parseConfig([]string{"-faults", "engine.characterize:error:every=2", "-faults-seed", "7"})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := c.faultPlan()
	if err != nil || plan == nil {
		t.Fatalf("faultPlan = %v, %v", plan, err)
	}

	// Without the flag, the environment supplies the plan.
	c2, err := parseConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	plan2, err := c2.faultPlan()
	if err != nil || plan2 == nil {
		t.Fatalf("env faultPlan = %v, %v", plan2, err)
	}

	// And with neither, there is none.
	t.Setenv("FAULTS", "")
	plan3, err := c2.faultPlan()
	if err != nil || plan3 != nil {
		t.Fatalf("empty env faultPlan = %v, %v, want nil, nil", plan3, err)
	}
}
