package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"igpucomm/internal/advisord"
	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/devices"
	"igpucomm/internal/engine"
	"igpucomm/internal/telemetry"
)

// coldQuestions is a new device's first advice: every device × app,
// current sc, in one batch.
func coldQuestions() []question {
	var qs []question
	for _, cfg := range devices.All() {
		for _, app := range catalog.Names() {
			qs = append(qs, question{cfg.Name, app, "sc"})
		}
	}
	return qs
}

// coldSession is one measured session.
type coldSession struct {
	lat   time.Duration
	stats engine.MemoStats
	// err is a transport or status failure; mismatch a per-result error,
	// a degraded answer or a difference from the reference.
	err, mismatch error
}

// runSession builds a fresh engine and advisord server, POSTs the batch and
// times it from send to the last answer. With tr non-nil the session is
// traced on both the client and the server side.
func runSession(ctx context.Context, o options, cl *http.Client, qs []question, body []byte, id string, tr *telemetry.Tracer) coldSession {
	if tr != nil {
		ctx = telemetry.WithTracer(ctx, tr)
	}
	ctx, span := telemetry.Start(ctx, "bench.session")
	defer span.End()
	eng := engine.New(engine.Options{})
	srv := advisord.New(eng, advisord.Options{Params: o.Params, Scale: o.Scale, Logger: discardLogger()})
	timer := newHandlerTimer(srv.Handler())
	timer.trace(tr)
	ts := httptest.NewServer(timer)
	defer ts.Close()
	defer cl.CloseIdleConnections()

	cctx, call := telemetry.Start(ctx, "bench.call")
	t0 := time.Now()
	resp, _, err := postAdvise(cctx, cl, ts.URL, body, id)
	s := coldSession{lat: time.Since(t0), stats: eng.Stats().Characterizations}
	call.End()
	if err != nil {
		s.err = err
		return s
	}
	s.mismatch = checkAdvice(o.Ref, qs, resp)
	return s
}

// coldPhase runs sessions back to back for d (at least one).
func coldPhase(ctx context.Context, o options, cl *http.Client, qs []question, body []byte, d time.Duration, tr *telemetry.Tracer) ([]coldSession, failures) {
	var out []coldSession
	var fails failures
	deadline := time.Now().Add(d)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		s := runSession(ctx, o, cl, qs, body, fmt.Sprintf("s%d", i), tr)
		switch {
		case s.err != nil:
			fails.add(fmt.Errorf("session %d: %w", i, s.err))
		case s.mismatch != nil:
			fails.add(fmt.Errorf("session %d: %w", i, s.mismatch))
		}
		out = append(out, s)
	}
	return out, fails
}

func runColdStart(ctx context.Context, o options) (*outcome, error) {
	qs := coldQuestions()
	body, err := adviseBody(qs)
	if err != nil {
		return nil, err
	}
	cl := newClient()
	// A set-up is one warm-up session, run twice: the measured sessions then
	// start from a process whose one-time costs (runtime heap growth, lazily
	// built package state) are paid, each with a cold engine of its own.
	setup, _, err := timeSetups(2, func() (struct{}, error) {
		s := runSession(ctx, o, cl, qs, body, "warmup", nil)
		return struct{}{}, s.err
	}, func(struct{}) {})
	if err != nil {
		return nil, fmt.Errorf("warm-up session: %w", err)
	}

	plain, fails := coldPhase(ctx, o, cl, qs, body, o.Duration, nil)
	reportFailures(fails)
	lat := sessionLatencies(plain)
	var total time.Duration
	for _, l := range lat {
		total += l
	}
	oc := &outcome{
		Attempted: len(plain),
		Lat:       lat,
		Failed:    fails.n,
		E2E: map[string]float64{
			"setup_s":       setup.Seconds(),
			"op_p50_ms":     ms(quantile(lat, 0.5)),
			"answers_per_s": float64(len(qs)*(len(plain)-fails.n)) / total.Seconds(),
		},
	}
	oc.Notes = append(oc.Notes, fmt.Sprintf("cold_advice_s=%.4f, median of %d sessions", quantile(lat, 0.5).Seconds(), len(lat)))
	if !o.Trace {
		return oc, nil
	}

	tr := telemetry.NewTracer(telemetry.TracerOptions{})
	traced, tfails := coldPhase(ctx, o, cl, qs, body, o.Duration, tr)
	reportFailures(tfails)
	oc.Attempted += len(traced)
	oc.Failed += tfails.n
	tlat := sessionLatencies(traced)
	var wall time.Duration
	var execs, shared uint64
	for i, s := range traced {
		wall += tlat[i]
		execs += s.stats.Executions
		shared += s.stats.Shared
	}
	led := analyze(tr.Spans())
	n := len(traced)
	perSession := func(name string, attrs ...string) float64 {
		_, _, self := led.sum(name, attrs...)
		return ms(meanDur(self, n))
	}
	oc.Layer = map[string]float64{
		"telemetry.overhead_ratio": float64(quantile(tlat, 0.5)) / float64(quantile(lat, 0.5)),
		"engine.characterize_ms":   perSession("engine.characterize", "cache", "miss"),
		"microbench.mb1_ms":        perSession("mb1.model"),
		"microbench.mb2_gpu_ms":    perSession("mb2.gpu.point"),
		"microbench.mb2_cpu_ms":    perSession("mb2.cpu.point"),
		"microbench.mb3_ms":        perSession("mb3"),
		"profile.collect_ms":       perSession("profile.collect"),
		"framework.advise_ms":      perSession("framework.advise"),
		"engine.executions":        float64(execs) / float64(n),
		"engine.shared":            float64(shared) / float64(n),
		"engine.parallelism":       float64(led.leafTime()) / float64(wall),
	}
	oc.Table = led.table(n)
	return oc, writeTrace(o.OutDir, o, tr, oc.Table)
}

func sessionLatencies(ss []coldSession) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.lat
	}
	return out
}
