// Example: bringing up a NEW board. Suppose you have a hypothetical
// next-generation module ("orin-class"): 12 GPU SMs, LPDDR5, hardware I/O
// coherence. You measured two numbers on the bench — cached GPU throughput
// and pinned-path throughput — and want the framework's advice for your
// application on it.
//
// The flow is the same one used to build the Jetson catalogs:
//  1. start from the closest catalog entry and edit the geometry,
//  2. calibrate the bandwidth parameters against your measurements,
//  3. characterize and advise.
package main

import (
	"context"
	"fmt"
	"log"

	"igpucomm"
	"igpucomm/internal/apps/shwfs"
	"igpucomm/internal/calibrate"
	"igpucomm/internal/devices"
	"igpucomm/internal/framework"
	"igpucomm/internal/microbench"
	"igpucomm/internal/soc"
	"igpucomm/internal/units"
)

func main() {
	ctx := context.Background()

	// 1. Geometry: start from Xavier, stretch to the new module's specs.
	cfg := devices.Xavier()
	cfg.Name = "orin-class"
	cfg.GPU.Name = "orin-class/gpu"
	cfg.GPU.SMs = 12
	cfg.GPU.Freq = 1.6 * units.GHz
	cfg.CPU.Freq = 2.4 * units.GHz
	cfg.DRAM.Bandwidth = 180 * units.GBps
	cfg.GPU.DRAMBandwidth = 150 * units.GBps
	cfg.CopyBandwidth = 45 * units.GBps

	// 2. Calibrate the two bandwidths you measured on the bench. The fit
	// runs the first micro-benchmark repeatedly — expect ~20s.
	fmt.Println("calibrating (runs the first micro-benchmark repeatedly)...")
	params := microbench.DefaultParams()
	fitted, err := calibrate.TuneLLCBandwidth(ctx, calibrate.SerialMB1, cfg, params, 310*units.GBps, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	fitted, err = calibrate.TunePinnedBandwidth(ctx, calibrate.SerialMB1, fitted, params, 40*units.GBps, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	if err := calibrate.Verify(ctx, calibrate.SerialMB1, fitted, params, calibrate.Target{
		SCThroughput: 310 * units.GBps,
		ZCThroughput: 40 * units.GBps,
		Tolerance:    0.06,
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calibrated %s: LLC %.0f GB/s, coherent path %.0f GB/s\n\n",
		fitted.Name, fitted.GPU.LLCBandwidth.GB(), fitted.IOBandwidth.GB())

	// 3. Characterize and advise, exactly as for a catalog board.
	s := soc.New(fitted)
	char, err := framework.Characterize(ctx, s, params)
	if err != nil {
		log.Fatal(err)
	}
	w, err := shwfs.Workload(shwfs.DefaultWorkloadParams())
	if err != nil {
		log.Fatal(err)
	}
	rec, err := framework.AdviseWorkload(ctx, char, s, w, "sc")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SH-WFS on %s: use %q (estimated %+.0f%%)\n", fitted.Name, rec.Suggested, rec.SpeedupPercent())
	fmt.Println("rationale:", rec.Rationale)

	// Sanity: measure all three models.
	exp, err := igpucomm.Explore(s, w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmeasured ranking:")
	for i, c := range exp.Ranked {
		fmt.Printf("  %d. %-3s %v\n", i+1, c.Model, c.Total.Duration())
	}
}
