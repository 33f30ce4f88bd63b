package microbench

import (
	"context"
	"fmt"

	"igpucomm/internal/comm"
	"igpucomm/internal/soc"
	"igpucomm/internal/telemetry"
	"igpucomm/internal/units"
)

// MB1Row is one communication model's measurement in the first
// micro-benchmark.
type MB1Row struct {
	Model      string
	CPUTime    units.Latency
	KernelTime units.Latency
	// Throughput is the GPU LL-L1 requested-byte throughput — the paper's
	// Table I quantity.
	Throughput units.BytesPerSecond
	// Overlapped ZC total (side-by-side bars in Fig 5).
	Total units.Latency
}

// MB1Result characterizes the device's cache paths under each model.
type MB1Result struct {
	Platform string
	Rows     []MB1Row
}

// Row returns the measurement for a model name.
func (r MB1Result) Row(model string) (MB1Row, bool) {
	for _, row := range r.Rows {
		if row.Model == model {
			return row, true
		}
	}
	return MB1Row{}, false
}

// PeakThroughput is the cached-path peak (the SC row): the
// GPU_Cache_LL_L1^max_throughput of eqn 2.
func (r MB1Result) PeakThroughput() units.BytesPerSecond {
	row, _ := r.Row("sc")
	return row.Throughput
}

// PinnedThroughput is the ZC row's throughput.
func (r MB1Result) PinnedThroughput() units.BytesPerSecond {
	row, _ := r.Row("zc")
	return row.Throughput
}

// ZCSCMaxSpeedup is the cached/pinned throughput ratio: the upper bound on
// what a cache-dependent application can gain by leaving zero-copy
// (ZC/SC_Max_speedup; 77x on TX2, 3.7-7x on Xavier in the paper).
func (r MB1Result) ZCSCMaxSpeedup() float64 {
	pinned := r.PinnedThroughput()
	if pinned <= 0 {
		return 1
	}
	ratio := float64(r.PeakThroughput()) / float64(pinned)
	if ratio < 1 {
		return 1
	}
	return ratio
}

// MB1 runs the first micro-benchmark alone: one job per communication
// model.
func MB1(ctx context.Context, platform string, p Params, run Runner) (MB1Result, error) {
	var res MB1Result
	if err := run(ctx, mb1Jobs(platform, p, &res)); err != nil {
		return MB1Result{}, err
	}
	return res, nil
}

// mb1Jobs sets up res for the platform and returns one job per
// communication model; job i fills res.Rows[i].
func mb1Jobs(platform string, p Params, res *MB1Result) []Job {
	models := comm.Models()
	*res = MB1Result{Platform: platform, Rows: make([]MB1Row, len(models))}
	jobs := make([]Job, len(models))
	for i, m := range models {
		jobs[i] = func(ctx context.Context, s *soc.SoC) (err error) {
			res.Rows[i], err = mb1Model(ctx, s, p, m)
			return err
		}
	}
	return jobs
}

// mb1Model runs the first micro-benchmark under a single communication
// model and returns its row.
func mb1Model(ctx context.Context, s *soc.SoC, p Params, m comm.Model) (MB1Row, error) {
	_, span := telemetry.Start(ctx, "mb1.model", telemetry.String("model", m.Name()))
	defer span.End()
	rep, err := m.Run(s, mb1Workload(p))
	if err != nil {
		return MB1Row{}, fmt.Errorf("mb1 under %s: %w", m.Name(), err)
	}
	row := MB1Row{
		Model:      m.Name(),
		CPUTime:    rep.CPUTime,
		KernelTime: rep.KernelTime,
		Total:      rep.Total,
	}
	if rep.KernelTime > 0 {
		row.Throughput = units.BytesPerSecond(
			float64(rep.GPU.BytesRequested) / rep.KernelTime.Seconds())
	}
	return row, nil
}
