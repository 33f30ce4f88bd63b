package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/calibrate"
	"igpucomm/internal/devices"
	"igpucomm/internal/dse"
	"igpucomm/internal/engine"
	"igpucomm/internal/framework"
	"igpucomm/internal/units"
)

// characterizeCmd runs the paper's three micro-benchmarks (§III-B) on one
// device through the engine and prints the resulting profile: peak GPU
// cache throughput per communication model, the cache-usage thresholds,
// and the maximum speedups a model switch can buy.
func characterizeCmd(fs *flag.FlagSet) runFunc {
	var names []string
	for _, c := range devices.All() {
		names = append(names, c.Name)
	}
	device := fs.String("device", devices.XavierName, "platform: "+strings.Join(names, ", "))
	quick := fs.Bool("quick", false, "reduced scale")
	save := fs.String("save", "", "write the characterization to this JSON file")
	return func(ctx context.Context, out, _ io.Writer) error {
		cfg, err := devices.ByName(*device)
		if err != nil {
			return err
		}
		params, _ := scaleFor(*quick)
		char, err := engine.New(engine.Options{}).Characterize(ctx, cfg, params)
		if err != nil {
			return err
		}

		fmt.Fprintf(out, "device characterization: %s (I/O coherent: %v)\n\n", char.Platform, char.IOCoherent)

		fmt.Fprintln(out, "first micro-benchmark — GPU LL-L1 cache, per communication model:")
		for _, row := range char.MB1.Rows {
			fmt.Fprintf(out, "  %-3s  cpu %-12v  kernel %-12v  throughput %8.2f GB/s\n",
				row.Model, row.CPUTime.Duration(), row.KernelTime.Duration(), row.Throughput.GB())
		}
		fmt.Fprintf(out, "  ZC/SC max speedup (cache-dependent apps leaving ZC): %.1fx\n\n", char.ZCSCMaxSpeedup)

		fmt.Fprintln(out, "second micro-benchmark — cache-usage thresholds:")
		fmt.Fprintf(out, "  GPU: ZC safe below %.1f%%, conditional to %.1f%%, discouraged above\n",
			char.Thresholds.GPUCacheLow*100, char.Thresholds.GPUCacheHigh*100)
		note := " (pinned buffers are uncached for the CPU)"
		if char.IOCoherent {
			note = " (CPU caches stay enabled under ZC: no CPU-side limit)"
		}
		fmt.Fprintf(out, "  CPU: threshold %.2f%%%s\n\n", char.Thresholds.CPUCache*100, note)

		fmt.Fprintln(out, "third micro-benchmark — balanced overlapped workload:")
		fmt.Fprintf(out, "  SC %-12v UM %-12v ZC %-12v\n",
			char.MB3.SCTotal.Duration(), char.MB3.UMTotal.Duration(), char.MB3.ZCTotal.Duration())
		fmt.Fprintf(out, "  SC/ZC max speedup (apps adopting ZC): %.2fx\n", char.SCZCMaxSpeedup)

		if *save != "" {
			err := createWith(*save, func(w io.Writer) error { return framework.SaveCharacterization(w, char) })
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "\ncharacterization saved to %s\n", *save)
		}
		return nil
	}
}

// calibrateCmd fits a platform's bandwidth parameters to measured
// Table-I-style numbers: given a base catalog entry and the cached (SC) and
// pinned-path (ZC) GPU throughputs measured on a board, it bisects the
// simulator's parameters until MB1 reproduces them.
func calibrateCmd(fs *flag.FlagSet) runFunc {
	base := fs.String("base", devices.TX2Name, "base platform to refit")
	sc := fs.Float64("sc", 0, "measured cached GPU throughput, GB/s (0 = skip)")
	zc := fs.Float64("zc", 0, "measured pinned-path GPU throughput, GB/s (0 = skip)")
	tol := fs.Float64("tol", 0.05, "relative tolerance")
	quick := fs.Bool("quick", false, "reduced micro-benchmark scale")
	workers := fs.Int("workers", 0, "simulation parallelism (0 = GOMAXPROCS)")
	return func(ctx context.Context, out, _ io.Writer) error {
		cfg, err := devices.ByName(*base)
		if err != nil {
			return err
		}
		params, _ := scaleFor(*quick)
		if *sc <= 0 && *zc <= 0 {
			return fmt.Errorf("nothing to fit: pass -sc and/or -zc")
		}

		// The bisection re-measures MB1 at every probe; routing it through
		// the engine parallelizes the three model rows and memoizes
		// repeated probes of the same candidate config (the final
		// verification pass, for one, re-measures the fitted config for
		// free).
		runMB1 := calibrate.MB1Runner(engine.New(engine.Options{Workers: *workers}).MB1)

		if *sc > 0 {
			fmt.Fprintf(out, "fitting GPU LLC bandwidth to SC throughput %.2f GB/s ...\n", *sc)
			cfg, err = calibrate.TuneLLCBandwidth(ctx, runMB1, cfg, params, units.BytesPerSecond(*sc)*units.GBps, *tol)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "  -> LLCBandwidth = %.2f GB/s\n", cfg.GPU.LLCBandwidth.GB())
		}
		if *zc > 0 {
			fmt.Fprintf(out, "fitting zero-copy path to ZC throughput %.2f GB/s ...\n", *zc)
			cfg, err = calibrate.TunePinnedBandwidth(ctx, runMB1, cfg, params, units.BytesPerSecond(*zc)*units.GBps, *tol)
			if err != nil {
				return err
			}
			if cfg.IOCoherent {
				fmt.Fprintf(out, "  -> IOBandwidth = %.2f GB/s\n", cfg.IOBandwidth.GB())
			} else {
				fmt.Fprintf(out, "  -> PinnedBandwidth = %.2f GB/s\n", cfg.PinnedBandwidth.GB())
			}
		}

		err = calibrate.Verify(ctx, runMB1, cfg, params, calibrate.Target{
			SCThroughput: units.BytesPerSecond(*sc) * units.GBps,
			ZCThroughput: units.BytesPerSecond(*zc) * units.GBps,
			Tolerance:    *tol,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "verification passed: the fitted config reproduces the measurements")
		return nil
	}
}

// whatifCmd explores the device design space: sweep one platform parameter
// and watch where the best communication model flips for an application —
// the architect's dual of the paper's programmer-facing question.
func whatifCmd(fs *flag.FlagSet) runFunc {
	base := fs.String("base", devices.TX2Name, "base platform")
	axisName := fs.String("axis", "io", "axis: io, copy, pinned, dram")
	min := fs.Float64("min", 1, "axis minimum (GB/s)")
	max := fs.Float64("max", 64, "axis maximum (GB/s)")
	steps := fs.Int("steps", 7, "sweep points (geometric)")
	app := fs.String("app", "shwfs", "application: "+strings.Join(catalog.Names(), ", "))
	return func(_ context.Context, out, _ io.Writer) error {
		w, err := catalog.ByName(*app, catalog.Full)
		if err != nil {
			return err
		}
		cfg, err := devices.ByName(*base)
		if err != nil {
			return err
		}
		axis, err := dse.AxisByName(*axisName)
		if err != nil {
			return err
		}
		points, err := dse.Sweep(cfg, axis, dse.Geomspace(*min, *max, *steps), w, nil)
		if err != nil {
			return err
		}

		fmt.Fprintf(out, "what-if: %s on %s, sweeping %s\n\n", *app, *base, axis.Name)
		fmt.Fprintf(out, "%-12s  %-12s  %-12s  %-12s  %s\n", axis.Name+" ("+axis.Unit+")", "sc", "um", "zc", "best")
		for _, p := range points {
			fmt.Fprintf(out, "%-12.3g  %-12v  %-12v  %-12v  %s\n",
				p.Value,
				p.Totals["sc"].Duration(), p.Totals["um"].Duration(), p.Totals["zc"].Duration(),
				p.Best)
		}
		if v, ok := dse.Crossover(points, "zc"); ok {
			fmt.Fprintf(out, "\nzero-copy becomes the best model from %.3g %s\n", v, axis.Unit)
		} else {
			fmt.Fprintln(out, "\nzero-copy never wins on this axis range")
		}
		return nil
	}
}
