// Package advisord is the advisory service's HTTP surface, importable so
// both the cmd/advisord binary and the perfbench harness serve the exact
// same routes: batch advice (/v1/advise), cached device characterization
// (/v1/characterize), per-buffer heat exploration (/v1/heatmap), health,
// status and Prometheus metrics, all wrapped in
// the per-request observability middleware (trace IDs, latency histograms,
// structured request log). All state lives in the execution engine, which
// also persists its characterizations; the server only translates requests
// and records telemetry.
//
// The /v1 endpoints sit behind a resilience layer: per-request deadlines, a
// bounded admission queue that sheds overload with 429 + Retry-After, a
// circuit breaker around device characterization, and a degraded mode that
// answers from a threshold-only heuristic (framework.HeuristicAdvise) when
// the engine cannot — so the service keeps answering, with reduced fidelity,
// through engine failures instead of timing out or crashing.
package advisord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/buildinfo"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/engine"
	"igpucomm/internal/faults"
	"igpucomm/internal/fleet"
	"igpucomm/internal/framework"
	"igpucomm/internal/microbench"
	"igpucomm/internal/simnet"
	"igpucomm/internal/telemetry"
)

// Options configures a Server. The zero value of every resilience knob means
// "use the default", so existing callers only set what they care about.
type Options struct {
	// Params are the micro-benchmark parameters used for characterization.
	Params microbench.Params
	// Scale selects the workload catalog scale (catalog.Full or Quick).
	Scale catalog.Scale
	// Logger receives the structured request log (nil: slog.Default).
	Logger *slog.Logger

	// RequestTimeout is the per-request deadline applied to /v1 handlers
	// (0: 30s). Work the engine has not finished when it lapses is
	// abandoned and the request answers in degraded mode.
	RequestTimeout time.Duration
	// MaxConcurrent bounds how many /v1 requests execute at once (0: 64).
	MaxConcurrent int
	// MaxQueue bounds how many /v1 requests may wait for an execution
	// slot; anything beyond is shed with 429 (0: 2*MaxConcurrent).
	MaxQueue int
	// BreakerThreshold is how many consecutive characterization failures
	// trip the circuit breaker open (0: 5).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before letting a
	// probe through (0: 10s).
	BreakerCooldown time.Duration
	// Clock is the time source for everything the server times — breaker
	// cooldown, request deadlines, latency observation, uptime (nil:
	// simnet.Real()). The DST harness injects a virtual clock here.
	Clock simnet.Clock

	// Fleet, when non-nil, makes this server one shard of a sharded
	// advisord fleet: the topology and cache-export routes appear, the
	// drain gate sheds /v1 traffic while draining, fleet metrics register,
	// and AdminHandler serves the advisorctl surface.
	Fleet *fleet.State
}

func (o *Options) applyDefaults() {
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 64
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 2 * o.MaxConcurrent
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 10 * time.Second
	}
	if o.Clock == nil {
		o.Clock = simnet.Real()
	}
}

// Server wires the execution engine to the HTTP surface. All state lives in
// the engine; the server only translates requests and records telemetry.
type Server struct {
	eng     *engine.Engine
	opt     Options
	start   time.Time
	log     *slog.Logger
	metrics *serverMetrics
	info    buildinfo.Info

	breaker *Breaker
	admit   *admission
	fleet   *fleet.State // nil outside a fleet

	// devices resolves /v1/advise device names: every platform
	// devices.ByName knows, each built once at opt.Params.
	devices map[string]engine.Device
}

// New builds a server answering with the given engine under the given
// options.
func New(eng *engine.Engine, opt Options) *Server {
	opt.applyDefaults()
	start := opt.Clock.Now()
	info := buildinfo.Get()
	br := newBreaker(opt.BreakerThreshold, opt.BreakerCooldown, opt.Clock.Now)
	devs := make(map[string]engine.Device)
	for _, cfg := range append(devices.All(), devices.APU()) {
		// A device whose key cannot be derived stays in the table: its
		// every Advise fails with the derivation error, so each question
		// on it degrades, naming that error.
		d, err := engine.NewDevice(cfg, opt.Params)
		if err != nil {
			opt.Logger.Warn("device key", "device", cfg.Name, "err", err)
		}
		devs[cfg.Name] = d
	}
	return &Server{
		eng:     eng,
		opt:     opt,
		start:   start,
		log:     opt.Logger,
		metrics: newServerMetrics(eng, opt.Clock, start, info, br, opt.Fleet),
		info:    info,
		breaker: br,
		admit:   newAdmission(opt.MaxConcurrent, opt.MaxQueue),
		fleet:   opt.Fleet,
		devices: devs,
	}
}

// Handler builds the service's route table: every endpoint wrapped in the
// observability middleware, the /v1 endpoints additionally behind admission
// control and a per-request deadline.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.Handle("/metrics", s.metrics.reg.Handler())
	mux.Handle("/v1/advise", s.admitted(http.HandlerFunc(s.handleAdvise)))
	mux.Handle("/v1/characterize", s.admitted(http.HandlerFunc(s.handleCharacterize)))
	mux.Handle("/v1/heatmap", s.admitted(http.HandlerFunc(s.handleHeatmap)))
	if s.fleet != nil {
		// Deliberately outside admitted(): topology must answer while the
		// shard drains (clients need it to route away), and export must
		// answer while the shard drains (peers pull the cache off it).
		mux.HandleFunc("/v1/fleet/topology", s.handleFleetTopology)
		mux.HandleFunc("/v1/cache/export", s.handleCacheExport)
	}
	return s.observe(s.recoverPanics(mux))
}

// endpoints the middleware labels metrics with; anything else is "other" so
// an URL scan cannot explode the label space.
var knownEndpoints = map[string]bool{
	"/healthz":           true,
	"/statusz":           true,
	"/metrics":           true,
	"/v1/advise":         true,
	"/v1/characterize":   true,
	"/v1/heatmap":        true,
	"/v1/fleet/topology": true,
	"/v1/cache/export":   true,
}

// statusRecorder captures the status code the handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

// WriteHeader records the status code before delegating to the wrapped
// ResponseWriter.
func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// observe is the per-request observability middleware: a trace ID (accepted
// from X-Trace-Id or generated) echoed in the response header and stamped on
// every span the request opens, in-flight and latency metrics per endpoint,
// and a structured request log line.
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		endpoint := r.URL.Path
		if !knownEndpoints[endpoint] {
			endpoint = "other"
		}
		traceID := r.Header.Get("X-Trace-Id")
		if traceID == "" {
			traceID = telemetry.NewTraceID()
		}
		w.Header().Set("X-Trace-Id", traceID)
		ctx := telemetry.WithTraceID(r.Context(), traceID)

		s.metrics.requests.With(endpoint).Inc()
		s.metrics.inFlight.Inc()
		defer s.metrics.inFlight.Dec()

		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		t0 := s.opt.Clock.Now()
		next.ServeHTTP(rec, r.WithContext(ctx))
		elapsed := s.opt.Clock.Since(t0)

		s.metrics.latency.With(endpoint).Observe(elapsed.Seconds())
		s.metrics.responses.With(strconv.Itoa(rec.status)).Inc()
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"duration", elapsed,
			"trace_id", traceID,
		)
	})
}

// recoverPanics converts a handler panic into a 500 instead of an aborted
// connection, counts it, and keeps the process alive — the last line of the
// no-escaped-panics invariant the fault plans assert.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.metrics.panics.Inc()
				s.log.Error("handler panic recovered",
					"path", r.URL.Path, "panic", fmt.Sprint(rec),
					"stack", string(debug.Stack()))
				writeError(w, http.StatusInternalServerError,
					fmt.Sprintf("internal error: %v", rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// admitted is the /v1 admission middleware: bounded concurrency with a
// bounded wait queue, shedding overload as 429 + Retry-After, plus the
// per-request deadline.
func (s *Server) admitted(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.fleet != nil && s.fleet.Draining() {
			// Draining shard: shed advisory traffic with a retryable 503 so
			// fleet clients reroute to a healthy shard. The fleet topology
			// and cache-export routes stay up (they are not admitted()).
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "shard draining, retry another replica")
			return
		}
		release, ok := s.admit.acquire(r.Context())
		if !ok {
			s.metrics.shed.Inc()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "server at capacity, retry later")
			return
		}
		defer release()
		ctx, cancel := s.opt.Clock.WithTimeout(r.Context(), s.opt.RequestTimeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// resilienceStatus is the /statusz view of the resilience layer.
type resilienceStatus struct {
	Breaker           string `json:"breaker"`
	RequestsShed      uint64 `json:"requests_shed"`
	DegradedResponses uint64 `json:"degraded_responses"`
	PanicsRecovered   uint64 `json:"panics_recovered"`
	FaultsInjected    uint64 `json:"faults_injected"`
}

// statuszResponse is the /statusz payload.
type statuszResponse struct {
	UptimeSeconds float64          `json:"uptime_seconds"`
	Build         buildinfo.Info   `json:"build"`
	Devices       []string         `json:"devices"`
	Apps          []string         `json:"apps"`
	Engine        engine.Stats     `json:"engine"`
	Resilience    resilienceStatus `json:"resilience"`
	// Fleet is the shard's fleet counter snapshot, absent outside a fleet
	// so the pre-fleet JSON shape is unchanged.
	Fleet *fleet.Stats `json:"fleet,omitempty"`
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	var names []string
	for _, cfg := range devices.All() {
		names = append(names, cfg.Name)
	}
	resp := statuszResponse{
		UptimeSeconds: s.opt.Clock.Since(s.start).Seconds(),
		Build:         s.info,
		Devices:       names,
		Apps:          catalog.Names(),
		Engine:        s.eng.Stats(),
		Resilience: resilienceStatus{
			Breaker:           s.breaker.State(),
			RequestsShed:      s.metrics.shed.Value(),
			DegradedResponses: s.metrics.degraded.Value(),
			PanicsRecovered:   s.metrics.panics.Value(),
			FaultsInjected:    faults.InjectedTotal(),
		},
	}
	if s.fleet != nil {
		st := s.fleet.Stats()
		resp.Fleet = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

// AdviseRequest is one advisory question over the wire.
type AdviseRequest struct {
	// Device names a catalog platform (e.g. "jetson-tx2").
	Device string `json:"device"`
	// App names a catalog workload (e.g. "shwfs").
	App string `json:"app"`
	// Current is the model the application currently implements
	// (default "sc").
	Current string `json:"current"`
}

// AdviseBody is the /v1/advise request body: a batch of questions.
type AdviseBody struct {
	Requests []AdviseRequest `json:"requests"`
}

// AdviseResult is one request's answer on the wire: either a recommendation
// or a per-request error, never both. Degraded marks advice produced by the
// threshold-only heuristic because the engine could not answer.
type AdviseResult struct {
	Recommendation *framework.Recommendation `json:"recommendation,omitempty"`
	Zone           string                    `json:"zone,omitempty"`
	Degraded       bool                      `json:"degraded,omitempty"`
	DegradedReason string                    `json:"degraded_reason,omitempty"`
	Error          string                    `json:"error,omitempty"`
	ErrorKind      string                    `json:"error_kind,omitempty"`
}

// Check reports why r breaks the per-result contract of /v1/advise —
// complete advice (degraded exactly when it carries a reason) or a typed
// error, never a half-answer — and nil when r keeps it.
func (r AdviseResult) Check() error {
	switch {
	case r.Error != "" && (r.Recommendation != nil || r.ErrorKind == ""):
		return fmt.Errorf("error %q with kind %q and recommendation %v", r.Error, r.ErrorKind, r.Recommendation)
	case r.Error != "":
		return nil
	case r.Recommendation == nil || r.Recommendation.Suggested == "" || r.Zone == "":
		return fmt.Errorf("incomplete advice %+v", r)
	case r.Degraded != (r.DegradedReason != ""):
		return fmt.Errorf("degraded %t with reason %q", r.Degraded, r.DegradedReason)
	}
	return nil
}

// AdviseResponse is the /v1/advise response body, results in request order.
type AdviseResponse struct {
	Results []AdviseResult `json:"results"`
}

// Bounds on one /v1/advise body, checked before any question starts: every
// question runs on its own goroutine, and admission control counts requests,
// not questions. The question cap admits every in-tree caller with room for
// the whole 45-question device x app x model sweep in one batch.
const (
	maxAdviseBodyBytes = 1 << 20
	maxAdviseQuestions = 64
)

func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a JSON body to /v1/advise")
		return
	}
	var body AdviseBody
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAdviseBodyBytes)).Decode(&body); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", maxAdviseBodyBytes))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decode request: %v", err))
		return
	}
	if len(body.Requests) == 0 {
		writeError(w, http.StatusBadRequest, "no requests")
		return
	}
	if len(body.Requests) > maxAdviseQuestions {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("%d requests in one batch, the limit is %d", len(body.Requests), maxAdviseQuestions))
		return
	}

	// Translate wire requests to engine requests; translation failures
	// (unknown device or app) become per-request errors so the rest of
	// the batch still runs.
	s.eng.NoteBatch()
	results := make([]AdviseResult, len(body.Requests))
	var wg sync.WaitGroup
	for i, ar := range body.Requests {
		req, err := s.toEngineRequest(ar)
		if err != nil {
			results[i] = AdviseResult{Error: err.Error(), ErrorKind: "invalid_request"}
			continue
		}
		if s.fleet != nil {
			s.fleet.NoteServed(ar.Device)
		}
		wg.Add(1)
		go func(i int, req engine.Request) {
			defer wg.Done()
			results[i] = s.adviseOne(r.Context(), req)
		}(i, req)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, AdviseResponse{Results: results})
}

// adviseOne answers one advisory request through the resilience layer: one
// breaker-guarded engine Advise call, which characterizes only when the
// question misses the engine's advice memo. The breaker hears only
// characterization failures; any failure falls back to degraded heuristic
// advice whose reason names the failed stage, so the caller always gets an
// answer or a typed error. Degraded answers stay outside the engine's memo:
// they depend on transient failure state, not on the question.
func (s *Server) adviseOne(ctx context.Context, req engine.Request) AdviseResult {
	done, ok := s.breaker.Allow()
	if !ok {
		return s.degraded(ctx, req, "circuit breaker open")
	}
	var rec framework.Recommendation
	err := guard(func() error {
		var err error
		rec, err = s.eng.Advise(ctx, req)
		return err
	})
	done(characterizationOutcome(err))
	switch {
	case errors.Is(err, engine.ErrCharacterization):
		return s.degraded(ctx, req, err.Error())
	case err != nil:
		return s.degraded(ctx, req, fmt.Sprintf("advice failed: %v", err))
	}
	return AdviseResult{Recommendation: &rec, Zone: rec.Zone.String()}
}

// degraded answers from the threshold-only heuristic, marking the result so
// callers know it carries no measured speedup, and annotating the request's
// trace with the reason.
func (s *Server) degraded(ctx context.Context, req engine.Request, reason string) AdviseResult {
	var rec framework.Recommendation
	w, err := catalog.ByName(req.App, req.Scale)
	if err == nil {
		rec, err = framework.HeuristicAdvise(req.Device.Config(), w, req.Current)
	}
	if err != nil {
		// Even the fallback needs a valid app and current model; this is a
		// caller mistake, not an engine failure.
		return AdviseResult{Error: err.Error(), ErrorKind: "invalid_request"}
	}
	s.metrics.degraded.Inc()
	_, span := telemetry.Start(ctx, "advisord.degraded",
		telemetry.String("device", req.Device.Name()),
		telemetry.String("workload", req.App))
	span.SetAttr("degraded", reason)
	span.End()
	s.log.Warn("degraded advice", "device", req.Device.Name(),
		"workload", req.App, "reason", reason)
	return AdviseResult{
		Recommendation: &rec,
		Zone:           rec.Zone.String(),
		Degraded:       true,
		DegradedReason: reason,
	}
}

// guard runs f, converting a panic into an *engine.PanicError — the fault
// injector's panic mode (and any real bug) must degrade the one request, not
// kill the process.
func guard(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &engine.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return f()
}

// toEngineRequest resolves a wire question against the server's device
// table. An unknown device gets devices.ByName's error.
func (s *Server) toEngineRequest(ar AdviseRequest) (engine.Request, error) {
	d, ok := s.devices[ar.Device]
	if !ok {
		_, err := devices.ByName(ar.Device)
		return engine.Request{}, err
	}
	if _, err := catalog.ByName(ar.App, s.opt.Scale); err != nil {
		return engine.Request{}, err
	}
	current := ar.Current
	if current == "" {
		current = "sc"
	}
	return engine.Request{Device: d, App: ar.App, Scale: s.opt.Scale, Current: current}, nil
}

// handleCharacterize serves the (cached) device characterization in the
// framework persist format, so the response body is directly usable as an
// `advisor advise -char` file. Unlike /v1/advise it has no degraded fallback —
// a characterization either exists or it does not — so an open breaker
// answers 503 with a Retry-After hint.
func (s *Server) handleCharacterize(w http.ResponseWriter, r *http.Request) {
	device := r.URL.Query().Get("device")
	if device == "" {
		writeError(w, http.StatusBadRequest, "missing ?device= parameter")
		return
	}
	cfg, err := devices.ByName(device)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	done, ok := s.breaker.Allow()
	if !ok {
		w.Header().Set("Retry-After", strconv.Itoa(int(s.breaker.RetryAfter().Seconds())))
		writeError(w, http.StatusServiceUnavailable, "characterization circuit breaker open")
		return
	}
	var char framework.Characterization
	err = guard(func() error {
		var err error
		char, err = s.eng.Characterize(r.Context(), cfg, s.opt.Params)
		return err
	})
	done(err)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := framework.SaveCharacterization(w, char); err != nil {
		s.log.Error("write characterization", "err", err)
	}
}

// handleHeatmap runs a heat-enabled exploration of one device x app point and
// serves the per-buffer heat artifact in the same schema-versioned format
// `advisor advise -heatmap` writes, so the response body is directly loadable with
// framework.LoadHeatArtifact. Heat runs are never cached (heat is an
// observability overlay, not part of the engine's memoized results), so like
// /v1/characterize an open breaker answers 503 with a Retry-After hint.
func (s *Server) handleHeatmap(w http.ResponseWriter, r *http.Request) {
	device := r.URL.Query().Get("device")
	if device == "" {
		writeError(w, http.StatusBadRequest, "missing ?device= parameter")
		return
	}
	app := r.URL.Query().Get("app")
	if app == "" {
		writeError(w, http.StatusBadRequest, "missing ?app= parameter")
		return
	}
	cfg, err := devices.ByName(device)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	wl, err := catalog.ByName(app, s.opt.Scale)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	done, ok := s.breaker.Allow()
	if !ok {
		w.Header().Set("Retry-After", strconv.Itoa(int(s.breaker.RetryAfter().Seconds())))
		writeError(w, http.StatusServiceUnavailable, "exploration circuit breaker open")
		return
	}
	var exp framework.Exploration
	err = guard(func() error {
		var err error
		exp, err = s.eng.ExploreHeat(r.Context(), cfg, wl, comm.AllModels())
		return err
	})
	done(err)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	art := framework.HeatArtifact{Entries: framework.HeatEntriesFromExploration(exp)}
	s.metrics.heatRequests.Inc()
	if len(art.Entries) > 0 {
		best := art.Entries[0]
		hot := 0
		for _, h := range best.Hints {
			if h.Class == framework.BufferHot {
				hot++
			}
		}
		s.metrics.heatBuffers.Set(float64(len(best.Buffers)))
		s.metrics.heatHot.Set(float64(hot))
	}
	w.Header().Set("Content-Type", "application/json")
	if err := framework.SaveHeatArtifact(w, art); err != nil {
		s.log.Error("write heat artifact", "err", err)
	}
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		slog.Error("encode response", "err", err)
	}
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
