package microbench

import (
	"context"

	"igpucomm/internal/soc"
)

// Job runs one simulation on the platform the Runner lends it and writes
// its result into a slot no other job touches. Every job begins by
// resetting the platform state (each communication-model run and each CPU
// sweep point calls soc.ResetState), so its result does not depend on which
// platform it ran on or what ran there before.
type Job func(ctx context.Context, s *soc.SoC) error

// Runner executes one stage's jobs — mutually independent, in any order or
// concurrently — and returns the lowest-index error.
type Runner func(ctx context.Context, jobs []Job) error

// Serial runs every job in index order on the one platform s.
func Serial(s *soc.SoC) Runner {
	return func(ctx context.Context, jobs []Job) error {
		for _, job := range jobs {
			if err := job(ctx, s); err != nil {
				return err
			}
		}
		return nil
	}
}

// Results are the three micro-benchmarks' outputs for one platform.
type Results struct {
	Platform   string
	IOCoherent bool

	MB1 MB1Result
	MB2 MB2Result
	MB3 MB3Result
}

// Characterize runs the paper's characterization plan (§III-B) through run.
// Stage 1 measures MB1's per-model rows and MB3, which need nothing from
// each other; stage 2 sweeps MB2's density points, which need MB1's peak
// throughput. This is the only place the stage order is written down: a
// serial characterization and the engine's parallel one differ only in the
// Runner they pass.
func Characterize(ctx context.Context, platform string, ioCoherent bool, p Params, run Runner) (Results, error) {
	res := Results{Platform: platform, IOCoherent: ioCoherent}
	stage1 := append(mb1Jobs(platform, p, &res.MB1), mb3Job(platform, p, &res.MB3))
	if err := run(ctx, stage1); err != nil {
		return Results{}, err
	}
	var err error
	if res.MB2, err = MB2(ctx, platform, ioCoherent, p, res.MB1.PeakThroughput(), run); err != nil {
		return Results{}, err
	}
	return res, nil
}
