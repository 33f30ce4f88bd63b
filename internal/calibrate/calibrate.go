// Package calibrate documents and automates how the device catalogs were
// fitted to the paper's measured characterization: given a target value from
// Table I, search the corresponding platform parameter until the first
// micro-benchmark reproduces it. The catalogs in internal/devices were tuned
// exactly this way; the harness lets anyone re-derive them — or fit a new
// board from its own measurements.
package calibrate

import (
	"context"
	"fmt"

	"igpucomm/internal/microbench"
	"igpucomm/internal/soc"
	"igpucomm/internal/units"
)

// Target is a device's Table-I objective.
type Target struct {
	// SCThroughput is the measured cached GPU throughput (SC row).
	SCThroughput units.BytesPerSecond
	// ZCThroughput is the measured pinned-path throughput (ZC row).
	ZCThroughput units.BytesPerSecond
	// Tolerance is the acceptable relative error (e.g. 0.05).
	Tolerance float64
}

// Validate reports problems.
func (t Target) Validate() error {
	if t.SCThroughput <= 0 && t.ZCThroughput <= 0 {
		return fmt.Errorf("calibrate: target needs at least one throughput")
	}
	if t.Tolerance <= 0 || t.Tolerance >= 1 {
		return fmt.Errorf("calibrate: tolerance %v out of (0,1)", t.Tolerance)
	}
	return nil
}

// MB1Runner measures the first micro-benchmark for a candidate
// configuration. SerialMB1 builds a fresh platform and runs the benchmark
// inline; callers with an execution engine pass its memoized Engine.MB1
// instead, so re-measuring the same candidate (the Verify step after a fit,
// or fitting -sc and -zc against one config) costs one simulation, not two.
type MB1Runner func(ctx context.Context, cfg soc.Config, p microbench.Params) (microbench.MB1Result, error)

// SerialMB1 is the uncached MB1Runner: MB1 on a fresh platform, one model
// after another.
func SerialMB1(ctx context.Context, cfg soc.Config, p microbench.Params) (microbench.MB1Result, error) {
	return microbench.MB1(ctx, cfg.Name, p, microbench.Serial(soc.New(cfg)))
}

// maxBisectIters bounds the search; 40 halvings of any sane bracket reach
// float precision long before this.
const maxBisectIters = 40

// bisect finds a parameter value in [lo, hi] whose measurement lands within
// tol of target, assuming the measurement is monotone non-decreasing in the
// parameter.
func bisect(lo, hi float64, target units.BytesPerSecond, tol float64,
	measure func(v float64) (units.BytesPerSecond, error)) (float64, error) {
	check := func(v float64) (float64, bool, error) {
		got, err := measure(v)
		if err != nil {
			return 0, false, err
		}
		rel := (float64(got) - float64(target)) / float64(target)
		return rel, rel >= -tol && rel <= tol, nil
	}
	// Ensure the bracket actually straddles the target.
	relLo, okLo, err := check(lo)
	if err != nil {
		return 0, err
	}
	if okLo {
		return lo, nil
	}
	relHi, okHi, err := check(hi)
	if err != nil {
		return 0, err
	}
	if okHi {
		return hi, nil
	}
	if relLo > 0 || relHi < 0 {
		return 0, fmt.Errorf("calibrate: target %.2f GB/s not reachable in [%g, %g] (got %.1f%%..%.1f%%)",
			target.GB(), lo, hi, relLo*100, relHi*100)
	}
	for i := 0; i < maxBisectIters; i++ {
		mid := (lo + hi) / 2
		rel, ok, err := check(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			return mid, nil
		}
		if rel < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0, fmt.Errorf("calibrate: no convergence to %.2f GB/s within %d iterations", target.GB(), maxBisectIters)
}

// TuneLLCBandwidth fits cfg.GPU.LLCBandwidth so the first micro-benchmark's
// SC throughput, as run measures it, matches the target. Returns the fitted
// config.
func TuneLLCBandwidth(ctx context.Context, run MB1Runner, cfg soc.Config, p microbench.Params, target units.BytesPerSecond, tol float64) (soc.Config, error) {
	if target <= 0 || tol <= 0 {
		return soc.Config{}, fmt.Errorf("calibrate: invalid LLC target")
	}
	v, err := bisect(float64(target)/8, float64(target)*8, target, tol, func(v float64) (units.BytesPerSecond, error) {
		c := cfg
		c.GPU.LLCBandwidth = units.BytesPerSecond(v)
		res, err := run(ctx, c, p)
		return res.PeakThroughput(), err
	})
	if err != nil {
		return soc.Config{}, err
	}
	out := cfg
	out.GPU.LLCBandwidth = units.BytesPerSecond(v)
	return out, nil
}

// TunePinnedBandwidth fits the zero-copy path bandwidth (the uncached pinned
// port on non-coherent platforms, the I/O-coherent port otherwise) so MB1's
// ZC throughput, as run measures it, matches the target.
func TunePinnedBandwidth(ctx context.Context, run MB1Runner, cfg soc.Config, p microbench.Params, target units.BytesPerSecond, tol float64) (soc.Config, error) {
	if target <= 0 || tol <= 0 {
		return soc.Config{}, fmt.Errorf("calibrate: invalid pinned target")
	}
	apply := func(c *soc.Config, v float64) {
		if c.IOCoherent {
			c.IOBandwidth = units.BytesPerSecond(v)
		} else {
			c.PinnedBandwidth = units.BytesPerSecond(v)
		}
	}
	v, err := bisect(float64(target)/8, float64(target)*8, target, tol, func(v float64) (units.BytesPerSecond, error) {
		c := cfg
		apply(&c, v)
		res, err := run(ctx, c, p)
		return res.PinnedThroughput(), err
	})
	if err != nil {
		return soc.Config{}, err
	}
	out := cfg
	apply(&out, v)
	return out, nil
}

// Verify measures MB1 on the config with run and checks it against the
// target.
func Verify(ctx context.Context, run MB1Runner, cfg soc.Config, p microbench.Params, target Target) error {
	if err := target.Validate(); err != nil {
		return err
	}
	res, err := run(ctx, cfg, p)
	if err != nil {
		return err
	}
	checkRel := func(name string, got, want units.BytesPerSecond) error {
		if want <= 0 {
			return nil
		}
		rel := (float64(got) - float64(want)) / float64(want)
		if rel < -target.Tolerance || rel > target.Tolerance {
			return fmt.Errorf("calibrate: %s throughput %.2f GB/s misses target %.2f GB/s by %.1f%%",
				name, got.GB(), want.GB(), rel*100)
		}
		return nil
	}
	if err := checkRel("SC", res.PeakThroughput(), target.SCThroughput); err != nil {
		return err
	}
	return checkRel("ZC", res.PinnedThroughput(), target.ZCThroughput)
}
