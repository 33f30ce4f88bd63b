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
// round r takes one sample of scenario 1, 2, ..., n before round r+1
// starts. A sample is one timed call, or for a body faster than minSample
// the median of several warm calls (see sample).
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
	calls := make([]int, len(scenarios))
	for i, s := range scenarios {
		n, err := callsPerSample(ctx, bodies[i])
		if err != nil {
			return Artifact{}, fmt.Errorf("perfbench: calibrate %s: %w", s.Name, err)
		}
		calls[i] = n
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
			elapsed, err := sample(iterCtx, bodies[i], calls[i])
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

// Short bodies are sampled warm and over many calls. The first call of a
// sub-millisecond body after a different scenario ran pays for the caches,
// threads and sockets that scenario left cold: measured on a 2-vCPU VM, the
// first warm /v1/advise call after a sweep took 1.5-3x the next ones, so a
// single timed call samples the transition rather than the body. The warm
// calls then drift between stretches about 2x apart that last milliseconds,
// so a sample spans several of them.
const (
	// minSample is the shortest body a single timed call samples alone,
	// and the time the calls of one short-body sample span.
	minSample = 25 * time.Millisecond
	// maxCallsPerSample caps the calls one sample of a short body takes.
	maxCallsPerSample = 100
)

// callsPerSample returns how many calls one sample of a warmed-up body
// takes: 1 for a body of at least minSample, otherwise enough calls to span
// minSample, capped at maxCallsPerSample. A call under minSample is timed
// again back to back, so the count comes from a warm call.
func callsPerSample(ctx context.Context, body func(context.Context) error) (int, error) {
	var d time.Duration
	for try := 0; try < 2; try++ {
		t0 := time.Now()
		if err := body(ctx); err != nil {
			return 0, err
		}
		if d = time.Since(t0); d >= minSample {
			return 1, nil
		}
	}
	return min(int(minSample/(d+1))+1, maxCallsPerSample), nil
}

// sample times one sample of body: the call itself when n is 1; otherwise
// one untimed call to re-warm the body after the previous scenario, then
// the median of n timed calls, which no single scheduler or host stall
// moves.
func sample(ctx context.Context, body func(context.Context) error, n int) (time.Duration, error) {
	if n == 1 {
		t0 := time.Now()
		err := body(ctx)
		return time.Since(t0), err
	}
	if err := body(ctx); err != nil {
		return 0, err
	}
	durs := make([]float64, n)
	for k := range durs {
		t0 := time.Now()
		if err := body(ctx); err != nil {
			return 0, err
		}
		durs[k] = float64(time.Since(t0))
	}
	return time.Duration(Summarize(durs).Median), nil
}
