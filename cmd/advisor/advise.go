package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/engine"
	"igpucomm/internal/framework"
	"igpucomm/internal/microbench"
	"igpucomm/internal/soc"
	"igpucomm/internal/telemetry"
)

// adviseCmd is the paper's tuning flow for one (device, app) pair:
// characterize the device, profile the application, classify its cache
// dependence, and print the recommended communication model with the
// estimated speedup. With -trace, every phase is recorded as a span and
// written as a Chrome trace_event file.
func adviseCmd(fs *flag.FlagSet) runFunc {
	device := fs.String("device", devices.XavierName, "platform name")
	app := fs.String("app", "shwfs", "application: shwfs, orbslam or lanedet")
	current := fs.String("current", "sc", "currently implemented model: sc, um, zc")
	quick := fs.Bool("quick", false, "reduced micro-benchmark scale")
	verify := fs.Bool("verify", false, "also measure every model and report the true ranking")
	charFile := fs.String("char", "", "load a saved characterization instead of re-running the micro-benchmarks")
	workers := fs.Int("workers", 0, "simulation parallelism (0 = GOMAXPROCS)")
	traceOut := fs.String("trace", "", "write a Chrome trace_event JSON file of the run to this path")
	heatOut := fs.String("heatmap", "", "run heat-enabled and write the per-buffer heat artifact (JSON) to this path")
	return func(ctx context.Context, out, _ io.Writer) error {
		ctx, tracer := startTrace(ctx, *traceOut)
		eng := engine.New(engine.Options{Workers: *workers})
		params, scale := scaleFor(*quick)

		w, err := catalog.ByName(*app, scale)
		if err != nil {
			return err
		}
		cfg, err := devices.ByName(*device)
		if err != nil {
			return err
		}

		var char framework.Characterization
		if *charFile != "" {
			if char, err = loadCharacterization(*charFile); err != nil {
				return err
			}
			if char.Platform != *device {
				return fmt.Errorf("characterization is for %q, not %q", char.Platform, *device)
			}
			fmt.Fprintf(out, "loaded characterization of %s from %s\n", char.Platform, *charFile)
		} else {
			fmt.Fprintf(out, "characterizing %s ...\n", *device)
			if char, err = eng.Characterize(ctx, cfg, params); err != nil {
				return err
			}
		}

		fmt.Fprintf(out, "profiling %s under %s ...\n", *app, *current)
		rec, classify, currentProf, err := framework.AdviseOn(ctx, char, w, *current, microbench.Serial(soc.New(cfg)))
		if err != nil {
			return err
		}

		fmt.Fprintln(out)
		fmt.Fprintf(out, "application:        %s on %s (currently %s)\n", rec.Workload, rec.Platform, rec.CurrentModel)
		fmt.Fprintf(out, "CPU cache usage:    %.2f%% (threshold %.2f%%, dependent: %v)\n",
			rec.CPUUsage*100, char.Thresholds.CPUCache*100, rec.CPUDependent)
		fmt.Fprintf(out, "GPU cache usage:    %.1f%% (zone: %v, thresholds %.1f%%/%.1f%%)\n",
			rec.GPUUsage*100, rec.Zone, char.Thresholds.GPUCacheLow*100, char.Thresholds.GPUCacheHigh*100)
		fmt.Fprintf(out, "recommendation:     %s\n", rec.Suggested)
		fmt.Fprintf(out, "estimated speedup:  %.1f%%\n", rec.SpeedupPercent())
		if rec.EnergyAdvantage {
			fmt.Fprintln(out, "energy:             eliminating the copies also saves transfer energy")
		}
		fmt.Fprintf(out, "rationale:          %s\n", rec.Rationale)

		// How robust is the verdict to profiler noise?
		st, err := framework.DecisionStability(char, classify, currentProf, *current, 0.10)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "stability:          %.0f%% of ±10%%-perturbed profiles agree", st.Agreement*100)
		if len(st.Flips) > 0 {
			fmt.Fprintf(out, " (flips to %v)", st.Flips)
		}
		fmt.Fprintln(out)

		if *verify {
			fmt.Fprintln(out)
			fmt.Fprintln(out, "measured ranking (brute force):")
			exp, err := eng.Explore(ctx, cfg, w, nil)
			if err != nil {
				return err
			}
			for i, cand := range exp.Ranked {
				fmt.Fprintf(out, "  %d. %-3s %v\n", i+1, cand.Model, cand.Total.Duration())
			}
			regret, ok, err := exp.Validate(rec, 0.10)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "recommendation regret: %.2fx (within 10%%: %v)\n", regret, ok)
		}

		if *heatOut != "" {
			fmt.Fprintln(out)
			exp, err := eng.ExploreHeat(ctx, cfg, w, comm.AllModels())
			if err != nil {
				return err
			}
			art := framework.HeatArtifact{Entries: framework.HeatEntriesFromExploration(exp)}
			emitHeatCounters(tracer, art.Entries)
			if err := writeHeatArtifact(out, *heatOut, art); err != nil {
				return err
			}
		}
		return writeTrace(out, tracer, *traceOut)
	}
}

func loadCharacterization(path string) (framework.Characterization, error) {
	f, err := os.Open(path)
	if err != nil {
		return framework.Characterization{}, err
	}
	defer f.Close()
	return framework.LoadCharacterization(f)
}

// startTrace installs a tracer on ctx when path is set; without one every
// span is a no-op.
func startTrace(ctx context.Context, path string) (context.Context, *telemetry.Tracer) {
	if path == "" {
		return ctx, nil
	}
	tracer := telemetry.NewTracer(telemetry.TracerOptions{})
	ctx = telemetry.WithTracer(ctx, tracer)
	return telemetry.WithTraceID(ctx, tracer.TraceID()), tracer
}

// writeTrace exports the run's span tree as a Chrome trace_event file.
func writeTrace(out io.Writer, tracer *telemetry.Tracer, path string) error {
	if tracer == nil {
		return nil
	}
	if err := createWith(path, tracer.WriteChromeTrace); err != nil {
		return err
	}
	fmt.Fprintf(out, "\ntrace written to %s (%d spans) — open in chrome://tracing or ui.perfetto.dev\n",
		path, tracer.Len())
	return nil
}
