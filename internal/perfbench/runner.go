package perfbench

import (
	"context"
	"fmt"
	"io"
	"time"

	"igpucomm/internal/buildinfo"
	"igpucomm/internal/telemetry"
)

// RunOptions configures one harness run.
type RunOptions struct {
	// Iterations is the number of timed runs per scenario (<=0: 5).
	Iterations int
	// Warmup is the number of untimed rounds before measurement begins
	// (<0: 1). Warmup runs bring caches, the page allocator and the
	// branch predictors to steady state.
	Warmup int
	// Quick is recorded in the artifact so runs at different scales are
	// never compared silently.
	Quick bool
	// Now overrides the artifact timestamp clock (tests). Iteration
	// timing always uses the monotonic runtime clock.
	Now func() time.Time
	// Progress, when non-nil, receives one line per completed round.
	Progress io.Writer
}

// Run prepares every scenario, then measures them with interleaved rounds:
// round r times scenario 1, 2, ..., n once each before round r+1 starts.
// Interleaving decorrelates a scenario's samples from slow drifts (thermal
// throttling, background load) — drift lands evenly across all scenarios
// instead of concentrating in whichever ran last — which is what makes the
// median/MAD statistics comparable across runs.
//
// Every timed iteration is wrapped in a telemetry span and recorded into a
// per-run histogram, so tracing a perfgate run shows the same span shapes
// the service emits. A scenario error aborts the run: partial timings are
// not a trajectory point.
func Run(ctx context.Context, scenarios []Scenario, opt RunOptions) (Artifact, error) {
	if len(scenarios) == 0 {
		return Artifact{}, fmt.Errorf("perfbench: no scenarios")
	}
	if opt.Iterations <= 0 {
		opt.Iterations = 5
	}
	if opt.Warmup < 0 {
		opt.Warmup = 1
	}
	if opt.Now == nil {
		opt.Now = time.Now
	}
	seen := make(map[string]bool, len(scenarios))
	for _, s := range scenarios {
		if s.Name == "" || s.Prepare == nil {
			return Artifact{}, fmt.Errorf("perfbench: scenario %q missing name or Prepare", s.Name)
		}
		if seen[s.Name] {
			return Artifact{}, fmt.Errorf("perfbench: duplicate scenario %q", s.Name)
		}
		seen[s.Name] = true
	}

	reg := telemetry.NewRegistry()
	durations := reg.HistogramVec("igpucomm_perfbench_iteration_seconds",
		"Timed harness iterations, by scenario.", "scenario", nil)

	ctx, runSpan := telemetry.Start(ctx, "perfbench.run",
		telemetry.String("scenarios", fmt.Sprintf("%d", len(scenarios))),
		telemetry.String("iterations", fmt.Sprintf("%d", opt.Iterations)))
	defer runSpan.End()

	bodies := make([]func(context.Context) error, len(scenarios))
	for i, s := range scenarios {
		body, cleanup, err := s.Prepare(ctx)
		if err != nil {
			return Artifact{}, fmt.Errorf("perfbench: prepare %s: %w", s.Name, err)
		}
		if cleanup != nil {
			defer cleanup()
		}
		bodies[i] = body
	}

	for w := 0; w < opt.Warmup; w++ {
		for i, s := range scenarios {
			if err := bodies[i](ctx); err != nil {
				return Artifact{}, fmt.Errorf("perfbench: warmup %s: %w", s.Name, err)
			}
		}
		progress(opt.Progress, "warmup round %d/%d done", w+1, opt.Warmup)
	}

	samples := make([][]float64, len(scenarios))
	for i := range samples {
		samples[i] = make([]float64, 0, opt.Iterations)
	}
	for r := 0; r < opt.Iterations; r++ {
		for i, s := range scenarios {
			iterCtx, span := telemetry.Start(ctx, "perfbench.iteration",
				telemetry.String("scenario", s.Name),
				telemetry.String("round", fmt.Sprintf("%d", r)))
			t0 := time.Now()
			err := bodies[i](iterCtx)
			elapsed := time.Since(t0)
			span.End()
			if err != nil {
				return Artifact{}, fmt.Errorf("perfbench: %s round %d: %w", s.Name, r, err)
			}
			durations.With(s.Name).Observe(elapsed.Seconds())
			samples[i] = append(samples[i], float64(elapsed.Nanoseconds()))
		}
		progress(opt.Progress, "round %d/%d done", r+1, opt.Iterations)
	}

	a := Artifact{
		Schema:     SchemaVersion,
		CreatedAt:  opt.Now().UTC().Format(time.RFC3339),
		Build:      buildinfo.Get(),
		Host:       CurrentHost(),
		Quick:      opt.Quick,
		Iterations: opt.Iterations,
		Scenarios:  make([]ScenarioResult, len(scenarios)),
	}
	for i, s := range scenarios {
		sum := Summarize(samples[i])
		a.Scenarios[i] = ScenarioResult{
			Name:       s.Name,
			Component:  s.Component,
			Doc:        s.Doc,
			Unit:       "ns",
			Iterations: opt.Iterations,
			MedianNS:   sum.Median,
			MADNS:      sum.MAD,
			MinNS:      sum.Min,
			P95NS:      sum.P95,
			SamplesNS:  samples[i],
		}
	}
	if err := a.Validate(); err != nil {
		return Artifact{}, err
	}
	return a, nil
}

func progress(w io.Writer, format string, args ...interface{}) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}
