package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/engine"
	"igpucomm/internal/framework"
	"igpucomm/internal/telemetry"
)

// sweepCmd explores every device x app x model combination (3 x 3 x 5 = 45
// measurement points with the extended model set) through the engine and
// prints the measured ranking per combination. Under -trace, every point
// shows up as an engine.explore.model span, which makes the sweep the
// canonical workload for `make trace`. With -heatmap the sweep runs
// heat-enabled and also writes the per-buffer heat artifact (plus Chrome
// counter samples when tracing).
func sweepCmd(fs *flag.FlagSet) runFunc {
	quick := fs.Bool("quick", false, "reduced micro-benchmark scale")
	workers := fs.Int("workers", 0, "simulation parallelism (0 = GOMAXPROCS)")
	traceOut := fs.String("trace", "", "write a Chrome trace_event JSON file of the run to this path")
	heatOut := fs.String("heatmap", "", "run heat-enabled and write the per-buffer heat artifact (JSON) to this path")
	return func(ctx context.Context, out, _ io.Writer) error {
		ctx, tracer := startTrace(ctx, *traceOut)
		eng := engine.New(engine.Options{Workers: *workers})
		_, scale := scaleFor(*quick)
		if err := runSweep(ctx, eng, scale, out, *heatOut, tracer); err != nil {
			return err
		}
		return writeTrace(out, tracer, *traceOut)
	}
}

// runSweep explores and prints the 45 points; with heatPath set it runs
// heat-enabled and writes the heat artifact there.
func runSweep(ctx context.Context, eng *engine.Engine, scale catalog.Scale, out io.Writer, heatPath string, tracer *telemetry.Tracer) error {
	ctx, sweep := telemetry.Start(ctx, "advisor.sweep")
	defer sweep.End()

	models := comm.AllModels()
	combos := 0
	var heat framework.HeatArtifact
	for _, cfg := range devices.All() {
		for _, app := range catalog.Names() {
			w, err := catalog.ByName(app, scale)
			if err != nil {
				return err
			}
			explore := eng.Explore
			if heatPath != "" {
				explore = eng.ExploreHeat
			}
			exp, err := explore(ctx, cfg, w, models)
			if err != nil {
				return fmt.Errorf("explore %s/%s: %w", cfg.Name, app, err)
			}
			if heatPath != "" {
				entries := framework.HeatEntriesFromExploration(exp)
				emitHeatCounters(tracer, entries)
				heat.Entries = append(heat.Entries, entries...)
			}
			combos += len(models)
			fmt.Fprintf(out, "%s / %s\n", cfg.Name, app)
			for i, cand := range exp.Ranked {
				marker := " "
				if i == 0 {
					marker = "*"
				}
				fmt.Fprintf(out, "  %s %d. %-8s %v\n", marker, i+1, cand.Model, cand.Total.Duration())
			}
		}
	}
	sweep.SetAttr("points", fmt.Sprintf("%d", combos))
	fmt.Fprintf(out, "\nswept %d device x app x model points\n", combos)
	if heatPath != "" {
		return writeHeatArtifact(out, heatPath, heat)
	}
	return nil
}
