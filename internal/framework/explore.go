package framework

import (
	"context"
	"fmt"
	"sort"

	"igpucomm/internal/comm"
	"igpucomm/internal/microbench"
	"igpucomm/internal/soc"
	"igpucomm/internal/telemetry"
	"igpucomm/internal/units"
)

// Candidate is one measured (model, runtime) pair from an exploration.
type Candidate struct {
	Model string
	Total units.Latency
	// Report keeps the full measurement.
	Report comm.Report
}

// Exploration is a measured ranking of communication models for a workload
// on a platform — the ground truth the advisor's prediction can be checked
// against (the paper does exactly this in Tables III and V).
type Exploration struct {
	Platform string
	Workload string
	// Ranked candidates, fastest first.
	Ranked []Candidate
}

// Best returns the fastest model.
func (e Exploration) Best() Candidate {
	return e.Ranked[0]
}

// Candidate looks up a model's measurement.
func (e Exploration) Candidate(model string) (Candidate, bool) {
	for _, c := range e.Ranked {
		if c.Model == model {
			return c, true
		}
	}
	return Candidate{}, false
}

// SpeedupOver returns how much faster the best model is than `model`.
func (e Exploration) SpeedupOver(model string) (float64, error) {
	c, ok := e.Candidate(model)
	if !ok {
		return 0, fmt.Errorf("framework: model %q not explored", model)
	}
	if e.Best().Total <= 0 {
		return 0, fmt.Errorf("framework: degenerate exploration")
	}
	return float64(c.Total) / float64(e.Best().Total), nil
}

// Explore measures the workload under every given model (the paper's three
// when models is nil) serially on s and returns the ranking. This is the
// brute-force companion to Advise: exact but as expensive as implementing
// every variant, which is the cost the framework exists to avoid.
func Explore(s *soc.SoC, w comm.Workload, models []comm.Model) (Exploration, error) {
	//igpulint:ignore ctxflow callers outside this module fix this signature; ctx-aware callers use ExploreOn directly
	return ExploreOn(context.Background(), s.Name(), w, models, microbench.Serial(s))
}

// ExploreOn is the exploration plan, run through run: one job per model, in
// model order, each measuring the workload under its model into the
// model's candidate slot, then ranks the slots fastest first. This is the
// only place exploration is written down: Explore runs it serially on one
// platform and the engine on pooled clones. Each job opens an
// engine.explore.model span, the name trace consumers read per model.
func ExploreOn(ctx context.Context, platform string, w comm.Workload, models []comm.Model, run microbench.Runner) (Exploration, error) {
	if models == nil {
		models = comm.Models()
	}
	if len(models) == 0 {
		return Exploration{}, fmt.Errorf("framework: no models to explore")
	}
	cands := make([]Candidate, len(models))
	jobs := make([]microbench.Job, len(models))
	for i, m := range models {
		jobs[i] = func(ctx context.Context, s *soc.SoC) error {
			_, span := telemetry.Start(ctx, "engine.explore.model", telemetry.String("model", m.Name()))
			defer span.End()
			rep, err := m.Run(s, w)
			if err != nil {
				return fmt.Errorf("framework: explore %s: %w", m.Name(), err)
			}
			cands[i] = Candidate{Model: m.Name(), Total: rep.Total, Report: rep}
			return nil
		}
	}
	if err := run(ctx, jobs); err != nil {
		return Exploration{}, err
	}
	// A stable sort: ties keep model order, whichever runner ran the jobs.
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Total < cands[j].Total })
	return Exploration{Platform: platform, Workload: w.Name, Ranked: cands}, nil
}

// Validate checks a Recommendation against a measured exploration: did the
// framework pick a model within tolerance of the true best? It returns the
// measured regret (best-of-suggested over best-overall, >= 1).
func (e Exploration) Validate(rec Recommendation, tolerance float64) (regret float64, ok bool, err error) {
	c, found := e.Candidate(rec.Suggested)
	if !found {
		return 0, false, fmt.Errorf("framework: suggested model %q was not explored", rec.Suggested)
	}
	if e.Best().Total <= 0 {
		return 0, false, fmt.Errorf("framework: degenerate exploration")
	}
	regret = float64(c.Total) / float64(e.Best().Total)
	return regret, regret <= 1+tolerance, nil
}
