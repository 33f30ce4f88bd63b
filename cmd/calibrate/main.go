// Command calibrate fits a platform's bandwidth parameters to measured
// Table-I-style numbers: give it a base catalog entry and the cached (SC)
// and pinned-path (ZC) GPU throughputs you measured on your board, and it
// bisects the simulator's parameters until the first micro-benchmark
// reproduces them.
//
// Usage:
//
//	calibrate -base jetson-tx2 -sc 97.34 -zc 1.28
//	calibrate -base jetson-agx-xavier -sc 214.64 -zc 32.29 -tol 0.05
package main

import (
	"context"
	"flag"
	"fmt"
	"igpucomm/internal/buildinfo"
	"os"

	"igpucomm/internal/calibrate"
	"igpucomm/internal/devices"
	"igpucomm/internal/engine"
	"igpucomm/internal/microbench"
	"igpucomm/internal/units"
)

func main() {
	base := flag.String("base", devices.TX2Name, "base platform to refit")
	sc := flag.Float64("sc", 0, "measured cached GPU throughput, GB/s (0 = skip)")
	zc := flag.Float64("zc", 0, "measured pinned-path GPU throughput, GB/s (0 = skip)")
	tol := flag.Float64("tol", 0.05, "relative tolerance")
	quick := flag.Bool("quick", false, "reduced micro-benchmark scale")
	workers := flag.Int("workers", 0, "simulation parallelism (0 = GOMAXPROCS)")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Get())
		return
	}

	cfg, err := devices.ByName(*base)
	fatalIf(err)
	params := microbench.DefaultParams()
	if *quick {
		params = microbench.TestParams()
	}
	if *sc <= 0 && *zc <= 0 {
		fatalIf(fmt.Errorf("nothing to fit: pass -sc and/or -zc"))
	}

	// The bisection re-measures MB1 at every probe; routing it through the
	// engine parallelizes the three model rows and memoizes repeated probes
	// of the same candidate config (the final verification pass, for one,
	// re-measures the fitted config for free).
	eng := engine.New(engine.Options{Workers: *workers})
	ctx := context.Background()
	runMB1 := calibrate.MB1Runner(eng.MB1)

	if *sc > 0 {
		fmt.Printf("fitting GPU LLC bandwidth to SC throughput %.2f GB/s ...\n", *sc)
		cfg, err = calibrate.TuneLLCBandwidth(ctx, runMB1, cfg, params, units.BytesPerSecond(*sc)*units.GBps, *tol)
		fatalIf(err)
		fmt.Printf("  -> LLCBandwidth = %.2f GB/s\n", cfg.GPU.LLCBandwidth.GB())
	}
	if *zc > 0 {
		fmt.Printf("fitting zero-copy path to ZC throughput %.2f GB/s ...\n", *zc)
		cfg, err = calibrate.TunePinnedBandwidth(ctx, runMB1, cfg, params, units.BytesPerSecond(*zc)*units.GBps, *tol)
		fatalIf(err)
		if cfg.IOCoherent {
			fmt.Printf("  -> IOBandwidth = %.2f GB/s\n", cfg.IOBandwidth.GB())
		} else {
			fmt.Printf("  -> PinnedBandwidth = %.2f GB/s\n", cfg.PinnedBandwidth.GB())
		}
	}

	err = calibrate.Verify(ctx, runMB1, cfg, params, calibrate.Target{
		SCThroughput: units.BytesPerSecond(*sc) * units.GBps,
		ZCThroughput: units.BytesPerSecond(*zc) * units.GBps,
		Tolerance:    *tol,
	})
	fatalIf(err)
	fmt.Println("verification passed: the fitted config reproduces the measurements")
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(1)
	}
}
