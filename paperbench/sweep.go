package main

import (
	"context"
	"fmt"
	"time"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/engine"
	"igpucomm/internal/soc"
	"igpucomm/internal/telemetry"
)

// combo is one device × app exploration target.
type combo struct {
	cfg soc.Config
	app string
	w   comm.Workload
}

// sweepEnv is one engine whose platform pool and compiled-kernel caches a
// priming sweep has filled.
type sweepEnv struct {
	eng    *engine.Engine
	combos []combo
	// first is the priming sweep's duration: GPU kernel compilation on
	// fresh platforms plus the first replay.
	first time.Duration
}

func newSweepEnv(ctx context.Context, o options) (*sweepEnv, error) {
	e := &sweepEnv{eng: engine.New(engine.Options{})}
	for _, cfg := range devices.All() {
		for _, app := range catalog.Names() {
			w, err := catalog.ByName(app, o.Scale)
			if err != nil {
				return nil, err
			}
			e.combos = append(e.combos, combo{cfg: cfg, app: app, w: w})
		}
	}
	t0 := time.Now()
	if _, err := e.sweep(ctx, nil); err != nil {
		return nil, fmt.Errorf("priming sweep: %w", err)
	}
	e.first = time.Since(t0)
	return e, nil
}

// sweep runs the 45-point exploration once and sums the simulated work
// counters of its Reports. With ref non-nil every Report is checked against
// the reference; the first difference is returned after the sweep ends.
func (e *sweepEnv) sweep(ctx context.Context, ref *Reference) (simCounts, error) {
	ctx, span := telemetry.Start(ctx, "bench.sweep")
	defer span.End()
	var sum simCounts
	var mismatch error
	for _, c := range e.combos {
		xctx, xspan := telemetry.Start(ctx, "bench.explore")
		exp, err := e.eng.Explore(xctx, c.cfg, c.w, comm.AllModels())
		xspan.End()
		if err != nil {
			return sum, err
		}
		for _, m := range comm.AllModels() {
			cand, ok := exp.Candidate(m.Name())
			if !ok {
				return sum, fmt.Errorf("%s/%s: no %s candidate", c.cfg.Name, c.app, m.Name())
			}
			if ref != nil && mismatch == nil {
				mismatch = ref.checkReport(point{c.cfg.Name, c.app, m.Name()}, c.cfg, cand.Report)
			}
			sum.add(countsOf(c.cfg, cand.Report))
		}
	}
	return sum, mismatch
}

// sweepPhase runs sweeps back to back for d (at least one).
type sweepPhase struct {
	lat    []time.Duration
	counts simCounts
	fails  failures
}

func (e *sweepEnv) phase(ctx context.Context, o options, d time.Duration, tr *telemetry.Tracer) sweepPhase {
	if tr != nil {
		ctx = telemetry.WithTracer(ctx, tr)
	}
	var p sweepPhase
	deadline := time.Now().Add(d)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		t0 := time.Now()
		counts, err := e.sweep(ctx, o.Ref)
		p.lat = append(p.lat, time.Since(t0))
		p.counts = counts
		if err != nil {
			p.fails.add(fmt.Errorf("sweep %d: %w", i, err))
		}
	}
	return p
}

func runSweep(ctx context.Context, o options) (*outcome, error) {
	var firsts []time.Duration
	setup, env, err := timeSetups(3, func() (*sweepEnv, error) {
		e, err := newSweepEnv(ctx, o)
		if err == nil {
			firsts = append(firsts, e.first)
		}
		return e, err
	}, func(*sweepEnv) {})
	if err != nil {
		return nil, err
	}

	plain := env.phase(ctx, o, o.Duration, nil)
	reportFailures(plain.fails)
	points := len(env.combos) * len(comm.AllModels())
	var total time.Duration
	for _, l := range plain.lat {
		total += l
	}
	p50 := quantile(plain.lat, 0.5)
	oc := &outcome{
		Attempted: len(plain.lat),
		Lat:       plain.lat,
		Failed:    plain.fails.n,
		E2E: map[string]float64{
			"setup_s":       setup.Seconds(),
			"op_p50_ms":     ms(p50),
			"answers_per_s": float64(points*(len(plain.lat)-plain.fails.n)) / total.Seconds(),
		},
	}
	oc.Notes = append(oc.Notes, fmt.Sprintf("sweep_s=%.4f, median of %d sweeps", p50.Seconds(), len(plain.lat)))
	if !o.Trace {
		return oc, nil
	}

	tr := telemetry.NewTracer(telemetry.TracerOptions{})
	traced := env.phase(ctx, o, o.Duration, tr)
	reportFailures(traced.fails)
	oc.Attempted += len(traced.lat)
	oc.Failed += traced.fails.n
	var wall time.Duration
	for _, l := range traced.lat {
		wall += l
	}
	led := analyze(tr.Spans())
	n := len(traced.lat)
	c := plain.counts
	oc.Layer = map[string]float64{
		"telemetry.overhead_ratio":   float64(quantile(traced.lat, 0.5)) / float64(p50),
		"engine.parallelism":         float64(led.leafTime()) / float64(wall),
		"sweep.first_s":              quantile(firsts, 0.5).Seconds(),
		"sim.host_ns_per_gpu_access": float64(p50) / float64(c.GPUL1Accesses+c.GPULLCAccesses),
		"sim.total_cycles":           float64(c.TotalCycles),
		"sim.gpu_instructions":       float64(c.GPUInstructions),
		"sim.gpu_transactions":       float64(c.GPUTransactions),
		"sim.gpu_l1_accesses":        float64(c.GPUL1Accesses),
		"sim.gpu_llc_accesses":       float64(c.GPULLCAccesses),
		"sim.cpu_instructions":       float64(c.CPUInstructions),
		"sim.dram_bytes":             float64(c.DRAMBytes),
	}
	for _, m := range comm.AllModels() {
		_, dur, _ := led.sum("engine.explore.model", "model", m.Name())
		oc.Layer["comm."+m.Name()+"_ms"] = ms(meanDur(dur, n))
	}
	oc.Table = led.table(n)
	return oc, writeTrace(o.OutDir, o, tr, oc.Table)
}
