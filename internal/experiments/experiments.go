// Package experiments regenerates every table and figure of the paper's
// evaluation section (§IV) on the simulated platforms. Each experiment
// returns both a rendered artifact (internal/report) and the structured data
// the shape tests and benchmarks assert on; paper reference values are
// embedded so EXPERIMENTS.md can show paper-vs-measured side by side.
package experiments

import (
	"context"
	"fmt"

	"igpucomm/internal/apps/orbslam"
	"igpucomm/internal/apps/shwfs"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/framework"
	"igpucomm/internal/microbench"
	"igpucomm/internal/soc"
)

// Context caches the per-device characterizations (they are expensive and
// application-independent) across the experiments of one session.
type Context struct {
	Params microbench.Params

	socs  map[string]*soc.SoC
	chars map[string]framework.Characterization
}

// NewContext builds a context at the given characterization scale.
func NewContext(p microbench.Params) *Context {
	return &Context{
		Params: p,
		socs:   make(map[string]*soc.SoC),
		chars:  make(map[string]framework.Characterization),
	}
}

// SoC returns (instantiating on first use) the named platform.
func (c *Context) SoC(name string) (*soc.SoC, error) {
	if s, ok := c.socs[name]; ok {
		return s, nil
	}
	s, err := devices.NewSoC(name)
	if err != nil {
		return nil, err
	}
	c.socs[name] = s
	return s, nil
}

// Char returns (running the micro-benchmarks on first use) the named
// platform's characterization.
func (c *Context) Char(ctx context.Context, name string) (framework.Characterization, error) {
	if ch, ok := c.chars[name]; ok {
		return ch, nil
	}
	s, err := c.SoC(name)
	if err != nil {
		return framework.Characterization{}, err
	}
	ch, err := framework.Characterize(ctx, s, c.Params)
	if err != nil {
		return framework.Characterization{}, err
	}
	c.chars[name] = ch
	return ch, nil
}

// runModels measures a workload under each of the given models on the
// named platform (framework.Explore) and returns the Reports by model name.
func (c *Context) runModels(name string, w comm.Workload, models []comm.Model) (map[string]comm.Report, error) {
	s, err := c.SoC(name)
	if err != nil {
		return nil, err
	}
	exp, err := framework.Explore(s, w, models)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s on %s: %w", w.Name, name, err)
	}
	out := make(map[string]comm.Report, len(exp.Ranked))
	for _, cand := range exp.Ranked {
		out[cand.Model] = cand.Report
	}
	return out, nil
}

// shwfsWorkload and orbWorkload are the evaluation-scale case studies.
func shwfsWorkload() (comm.Workload, error) {
	return shwfs.Workload(shwfs.DefaultWorkloadParams())
}

func orbWorkload() (comm.Workload, error) {
	return orbslam.Workload(orbslam.DefaultWorkloadParams())
}

// speedupPct is the paper's (asymmetric) percentage convention: gains are
// reported as base/new - 1 (+38% means 1.38x faster), losses as
// -(new/base - 1) (-744% means 8.44x slower).
func speedupPct(base, new float64) float64 {
	if new <= 0 || base <= 0 {
		return 0
	}
	if new <= base {
		return (base/new - 1) * 100
	}
	return -(new/base - 1) * 100
}

// SHWFSWorkloadForAblation exposes the evaluation-scale SH-WFS workload for
// ablation benchmarks.
func SHWFSWorkloadForAblation() (comm.Workload, error) { return shwfsWorkload() }

// Prewarm characterizes the named platforms concurrently (each on its own
// SoC instance — the simulators are independent) and caches the results.
// Characterization dominates the experiments' wall time, so this is the
// 3-devices-in-the-time-of-1 fast path used by the benchmark harness.
func (c *Context) Prewarm(ctx context.Context, names ...string) error {
	type result struct {
		name string
		s    *soc.SoC
		char framework.Characterization
		err  error
	}
	pending := make([]string, 0, len(names))
	for _, n := range names {
		if _, ok := c.chars[n]; !ok {
			pending = append(pending, n)
		}
	}
	results := make(chan result, len(pending))
	for _, name := range pending {
		go func(name string) {
			s, err := devices.NewSoC(name)
			if err != nil {
				results <- result{name: name, err: err}
				return
			}
			char, err := framework.Characterize(ctx, s, c.Params)
			results <- result{name: name, s: s, char: char, err: err}
		}(name)
	}
	for range pending {
		r := <-results
		if r.err != nil {
			return fmt.Errorf("experiments: prewarm %s: %w", r.name, r.err)
		}
		c.socs[r.name] = r.s
		c.chars[r.name] = r.char
	}
	return nil
}
