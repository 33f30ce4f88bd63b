// Command whatif explores the device design space: sweep one platform
// parameter and watch where the best communication model flips for an
// application — the architect's dual of the paper's programmer-facing
// question.
//
// Usage:
//
//	whatif -base jetson-tx2 -axis io -min 1 -max 64 -steps 7 -app shwfs
//	whatif -base jetson-agx-xavier -axis copy -min 0.5 -max 32 -steps 6 -app lanedet
package main

import (
	"flag"
	"fmt"
	"igpucomm/internal/buildinfo"
	"os"
	"strings"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/devices"
	"igpucomm/internal/dse"
)

func main() {
	base := flag.String("base", devices.TX2Name, "base platform")
	axisName := flag.String("axis", "io", "axis: io, copy, pinned, dram")
	min := flag.Float64("min", 1, "axis minimum (GB/s)")
	max := flag.Float64("max", 64, "axis maximum (GB/s)")
	steps := flag.Int("steps", 7, "sweep points (geometric)")
	app := flag.String("app", "shwfs", "application: "+strings.Join(catalog.Names(), ", "))
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Get())
		return
	}

	w, err := catalog.ByName(*app, catalog.Full)
	fatalIf(err)

	cfg, err := devices.ByName(*base)
	fatalIf(err)
	axis, err := dse.AxisByName(*axisName)
	fatalIf(err)

	values := dse.Geomspace(*min, *max, *steps)
	points, err := dse.Sweep(cfg, axis, values, w, nil)
	fatalIf(err)

	fmt.Printf("what-if: %s on %s, sweeping %s\n\n", *app, *base, axis.Name)
	fmt.Printf("%-12s  %-12s  %-12s  %-12s  %s\n", axis.Name+" ("+axis.Unit+")", "sc", "um", "zc", "best")
	for _, p := range points {
		fmt.Printf("%-12.3g  %-12v  %-12v  %-12v  %s\n",
			p.Value,
			p.Totals["sc"].Duration(), p.Totals["um"].Duration(), p.Totals["zc"].Duration(),
			p.Best)
	}
	if v, ok := dse.Crossover(points, "zc"); ok {
		fmt.Printf("\nzero-copy becomes the best model from %.3g %s\n", v, axis.Unit)
	} else {
		fmt.Println("\nzero-copy never wins on this axis range")
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "whatif:", err)
		os.Exit(1)
	}
}
