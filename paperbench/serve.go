package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"igpucomm/internal/advisord"
	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/devices"
	"igpucomm/internal/engine"
	"igpucomm/internal/soc"
	"igpucomm/internal/telemetry"
)

const (
	// serveClients is the closed loop's client count, one connection each.
	serveClients = 2
	// serveBatches is each client's pre-generated batch sequence length; a
	// phase that outruns it starts the sequence again.
	serveBatches = 4096
	// probeCalls caps how many of the traced phase's calls the layer
	// probes replay.
	probeCalls = 150
)

// batch is one generated /v1/advise call.
type batch struct {
	qs      []question
	body    []byte
	orbslam bool
}

// genBatches draws each client's batch sequence from the seed: a batch size
// of 1–4, then that many of the 27 questions.
func genBatches(seed int64) ([][]batch, error) {
	qs := questions()
	out := make([][]batch, serveClients)
	for c := range out {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
		out[c] = make([]batch, serveBatches)
		for i := range out[c] {
			b := batch{qs: make([]question, 1+rng.Intn(4))}
			for j := range b.qs {
				b.qs[j] = qs[rng.Intn(len(qs))]
				b.orbslam = b.orbslam || b.qs[j].App == "orbslam"
			}
			body, err := adviseBody(b.qs)
			if err != nil {
				return nil, err
			}
			b.body = body
			out[c][i] = b
		}
	}
	return out, nil
}

// serveEnv is one primed advisord server.
type serveEnv struct {
	eng    *engine.Engine
	ts     *httptest.Server
	timer  *handlerTimer
	primed map[question]advisord.AdviseResult
}

// newServeEnv builds an engine and server at the run's scale and primes
// every one of the 27 questions, so measured calls are memo hits.
func newServeEnv(ctx context.Context, o options) (*serveEnv, error) {
	eng := engine.New(engine.Options{})
	srv := advisord.New(eng, advisord.Options{Params: o.Params, Scale: o.Scale, Logger: discardLogger()})
	timer := newHandlerTimer(srv.Handler())
	e := &serveEnv{eng: eng, ts: httptest.NewServer(timer), timer: timer,
		primed: make(map[question]advisord.AdviseResult)}
	qs := questions()
	body, err := adviseBody(qs)
	if err != nil {
		e.close()
		return nil, err
	}
	cl := newClient()
	defer cl.CloseIdleConnections()
	resp, _, err := postAdvise(ctx, cl, e.ts.URL, body, "prime")
	if err == nil && len(resp.Results) != len(qs) {
		err = fmt.Errorf("%d results for %d questions", len(resp.Results), len(qs))
	}
	if err != nil {
		e.close()
		return nil, fmt.Errorf("prime: %w", err)
	}
	for i, r := range resp.Results {
		if r.Error != "" || r.Degraded {
			e.close()
			return nil, fmt.Errorf("prime %v: error %q degraded %v", qs[i], r.Error, r.Degraded)
		}
		e.primed[qs[i]] = r
	}
	return e, nil
}

func (e *serveEnv) close() { e.ts.Close() }

// servePhase is one measured closed-loop phase.
type servePhase struct {
	lat       []time.Duration
	ids       []string
	answers   int
	orbslam   int
	respBytes int
	wall      time.Duration
	sent      [serveClients]int
	fails     failures
}

// phase runs the closed loop for d: every client sends its next batch as
// soon as the previous answer is read and checked. With tr non-nil each
// call is traced.
func (e *serveEnv) phase(ctx context.Context, o options, batches [][]batch, d time.Duration, tr *telemetry.Tracer) *servePhase {
	e.timer.trace(tr)
	defer e.timer.trace(nil)
	if tr != nil {
		ctx = telemetry.WithTracer(ctx, tr)
	}
	per := make([]servePhase, serveClients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &per[c]
			cl := newClient()
			defer cl.CloseIdleConnections()
			for i := 0; time.Now().Before(deadline); i++ {
				b := batches[c][i%len(batches[c])]
				id := fmt.Sprintf("c%d-%d", c, i)
				cctx, span := telemetry.Start(ctx, "bench.call")
				t0 := time.Now()
				resp, n, err := postAdvise(cctx, cl, e.ts.URL, b.body, id)
				lat := time.Since(t0)
				span.End()
				if err == nil {
					err = checkAdvice(o.Ref, b.qs, resp)
				}
				p.lat = append(p.lat, lat)
				p.ids = append(p.ids, id)
				p.respBytes += n
				if b.orbslam {
					p.orbslam++
				}
				if err != nil {
					p.fails.add(fmt.Errorf("call %s: %w", id, err))
					continue
				}
				p.answers += len(b.qs)
			}
		}(c)
	}
	wg.Wait()
	out := &servePhase{wall: time.Since(start)}
	for c := range per {
		p := &per[c]
		out.lat = append(out.lat, p.lat...)
		out.ids = append(out.ids, p.ids...)
		out.answers += p.answers
		out.orbslam += p.orbslam
		out.respBytes += p.respBytes
		out.sent[c] = len(p.lat)
		if p.fails.n > 0 && out.fails.n == 0 {
			out.fails.first = p.fails.first
		}
		out.fails.n += p.fails.n
	}
	return out
}

func runServeWarm(ctx context.Context, o options) (*outcome, error) {
	batches, err := genBatches(o.Seed)
	if err != nil {
		return nil, err
	}
	// Each set-up characterizes all three devices, so it runs twice.
	setup, env, err := timeSetups(2,
		func() (*serveEnv, error) { return newServeEnv(ctx, o) },
		func(e *serveEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	defer env.close()

	before := env.eng.Stats()
	plain := env.phase(ctx, o, batches, o.Duration, nil)
	oc := &outcome{
		Attempted: len(plain.lat),
		Lat:       plain.lat,
		Failed:    plain.fails.n,
		E2E: map[string]float64{
			"setup_s":       setup.Seconds(),
			"op_p50_ms":     ms(quantile(plain.lat, 0.5)),
			"answers_per_s": float64(plain.answers) / plain.wall.Seconds(),
		},
	}
	reportFailures(plain.fails)
	if p99 := tailP99(plain.lat); p99 > 0 {
		oc.Notes = append(oc.Notes, fmt.Sprintf("advise_p99_ms=%.4f over %d calls", ms(p99), len(plain.lat)))
	} else {
		oc.Notes = append(oc.Notes, fmt.Sprintf("advise_p99_ms not reported: %d calls, fewer than the 1000 that leave ten beyond it", len(plain.lat)))
	}
	if !o.Trace {
		return oc, nil
	}

	tr := telemetry.NewTracer(telemetry.TracerOptions{})
	traced := env.phase(ctx, o, batches, o.Duration, tr)
	after := env.eng.Stats()
	oc.Attempted += len(traced.lat)
	oc.Failed += traced.fails.n
	reportFailures(traced.fails)

	var handler, transport time.Duration
	timed := 0
	for i, id := range traced.ids {
		if h, ok := env.timer.handlerTime(id); ok {
			handler += h
			transport += traced.lat[i] - h
			timed++
		}
	}
	probes, err := env.probe(ctx, o, batches, traced.sent, tr)
	if err != nil {
		return nil, err
	}
	cl := newClient()
	defer cl.CloseIdleConnections()
	st, err := getStatusz(ctx, cl, env.ts.URL)
	if err != nil {
		return nil, err
	}
	led := analyze(tr.Spans())
	handlerMean := meanDur(handler, timed)
	oc.Layer = map[string]float64{
		"telemetry.overhead_ratio":   float64(quantile(traced.lat, 0.5)) / float64(quantile(plain.lat, 0.5)),
		"advisord.handler_ms":        ms(handlerMean),
		"advisord.transport_ms":      ms(meanDur(transport, timed)),
		"advisord.response_bytes":    float64(plain.respBytes) / float64(len(plain.lat)),
		"engine.characterize_misses": float64(after.Characterizations.Misses - before.Characterizations.Misses),
		"engine.advise_calls":        float64(after.Requests - before.Requests),
		"advisord.shed":              float64(st.Resilience.RequestsShed),
		"advisord.degraded":          float64(st.Resilience.DegradedResponses),
		"serve.orbslam_share":        float64(plain.orbslam) / float64(len(plain.lat)),
	}
	// Every probe span counts toward coverage; the device lookup has no
	// metric of its own.
	var probeTotal time.Duration
	for _, p := range []struct {
		metric, span string
		attrs        []string
	}{
		{"advisord.decode_ms", "bench.probe.decode", nil},
		{"", "bench.probe.device", nil},
		{"catalog.build_orbslam_ms", "bench.probe.build", []string{"app", "orbslam"}},
		{"catalog.build_shwfs_ms", "bench.probe.build", []string{"app", "shwfs"}},
		{"catalog.build_lanedet_ms", "bench.probe.build", []string{"app", "lanedet"}},
		{"engine.cache_key_us", "bench.probe.cache_key", nil},
		{"engine.characterize_hit_us", "bench.probe.characterize", nil},
		{"advisord.encode_ms", "bench.probe.encode", nil},
	} {
		n, dur, _ := led.sum(p.span, p.attrs...)
		probeTotal += dur
		switch {
		case p.metric == "":
		case strings.HasSuffix(p.metric, "_us"):
			oc.Layer[p.metric] = float64(meanDur(dur, n)) / float64(time.Microsecond)
		default:
			oc.Layer[p.metric] = ms(meanDur(dur, n))
		}
	}
	oc.Layer["serve.layer_coverage"] = float64(meanDur(probeTotal, probes)) / float64(handlerMean)
	oc.Table = led.table(len(traced.lat))
	return oc, writeTrace(o.OutDir, o, tr, oc.Table)
}

// probe replays up to probeCalls of the traced phase's batches, in the
// order the clients sent them, through the public calls the /v1/advise
// handler makes for each: decode the body, resolve the device, build the
// catalog workload, derive the cache key (twice: the characterization memo
// and the advice memo), characterize (a memo hit), and encode the response
// the way advisord writes it. It returns the number of calls replayed.
func (e *serveEnv) probe(ctx context.Context, o options, batches [][]batch, sent [serveClients]int, tr *telemetry.Tracer) (int, error) {
	ctx = telemetry.WithTracer(ctx, tr)
	n := 0
	for i := 0; n < probeCalls && (i < sent[0] || i < sent[1]); i++ {
		for c := 0; c < serveClients && n < probeCalls; c++ {
			if i >= sent[c] {
				continue
			}
			if err := e.probeCall(ctx, o, batches[c][i%len(batches[c])]); err != nil {
				return n, fmt.Errorf("probe: %w", err)
			}
			n++
		}
	}
	return n, nil
}

func (e *serveEnv) probeCall(ctx context.Context, o options, b batch) error {
	ctx, call := telemetry.Start(ctx, "bench.probe")
	defer call.End()

	var body advisord.AdviseBody
	err := spanned(ctx, "bench.probe.decode", func(context.Context) error {
		return json.NewDecoder(bytes.NewReader(b.body)).Decode(&body)
	})
	if err != nil {
		return err
	}
	var resp advisord.AdviseResponse
	for _, ar := range body.Requests {
		var cfg soc.Config
		err := spanned(ctx, "bench.probe.device", func(context.Context) (err error) {
			cfg, err = devices.ByName(ar.Device)
			return err
		})
		if err != nil {
			return err
		}
		err = spanned(ctx, "bench.probe.build", func(context.Context) error {
			_, err := catalog.ByName(ar.App, o.Scale)
			return err
		}, telemetry.String("app", ar.App))
		if err != nil {
			return err
		}
		for k := 0; k < 2; k++ {
			err = spanned(ctx, "bench.probe.cache_key", func(context.Context) error {
				_, err := engine.CacheKey(cfg, o.Params)
				return err
			})
			if err != nil {
				return err
			}
		}
		err = spanned(ctx, "bench.probe.characterize", func(ctx context.Context) error {
			_, err := e.eng.Characterize(ctx, cfg, o.Params)
			return err
		})
		if err != nil {
			return err
		}
		resp.Results = append(resp.Results, e.primed[question{ar.Device, ar.App, ar.Current}])
	}
	return spanned(ctx, "bench.probe.encode", func(context.Context) error {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		return enc.Encode(resp)
	})
}

// spanned runs f inside a span named name.
func spanned(ctx context.Context, name string, f func(context.Context) error, attrs ...telemetry.Attr) error {
	ctx, span := telemetry.Start(ctx, name, attrs...)
	defer span.End()
	return f(ctx)
}
