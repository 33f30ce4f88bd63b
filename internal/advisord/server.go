// Package advisord is the advisory service's HTTP surface, importable so
// both the cmd/advisord binary and the perfbench harness serve the exact
// same routes: batch advice (/v1/advise), cached device characterization
// (/v1/characterize), per-buffer heat exploration (/v1/heatmap), health,
// status and Prometheus metrics, all wrapped in
// the per-request observability middleware (trace IDs, latency histograms,
// structured request log). All state lives in the execution engine; the
// server only translates requests, records telemetry, and persists the
// cache.
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
	// CacheDir, when non-empty, receives cache snapshots after requests
	// that executed new characterizations.
	CacheDir string
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
	// and AdminHandler serves the advisorctl surface. Install the same
	// State's KeyRole on the engine for per-role cache accounting.
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
// the engine; the server only translates requests, records telemetry, and
// persists the cache.
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

	// persistMu serializes SaveCache writers and lastSaved tracks the
	// execution count already on disk.
	persistMu sync.Mutex
	lastSaved uint64

	// adviceMu guards adviceMemo, the per-server memo of successful
	// non-degraded recommendations. The key (characterization cache key +
	// workload name + current model) is a complete identity here — one
	// server runs one Params and one Scale, so a workload name denotes
	// exactly one workload — which makes re-profiling a repeated question
	// pure waste. Degraded answers are never memoized: they depend on
	// transient failure state, not on the question.
	adviceMu   sync.Mutex
	adviceMemo map[string]framework.Recommendation
}

// New builds a server answering with the given engine under the given
// options.
func New(eng *engine.Engine, opt Options) *Server {
	opt.applyDefaults()
	start := opt.Clock.Now()
	info := buildinfo.Get()
	br := newBreaker(opt.BreakerThreshold, opt.BreakerCooldown, opt.Clock.Now)
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

		adviceMemo: make(map[string]framework.Recommendation),
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
// no-escaped-panics invariant the chaos suite asserts.
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
	// so the pre-fleet JSON shape is unchanged. Per-role cache counters
	// live under engine.characterizations_by_role.
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

// AdviseResponse is the /v1/advise response body, results in request order.
type AdviseResponse struct {
	Results []AdviseResult `json:"results"`
}

func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a JSON body to /v1/advise")
		return
	}
	var body AdviseBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decode request: %v", err))
		return
	}
	if len(body.Requests) == 0 {
		writeError(w, http.StatusBadRequest, "no requests")
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
			if key, kerr := engine.CacheKey(req.Config, req.Params); kerr == nil {
				s.fleet.NoteServed(key)
			}
		}
		wg.Add(1)
		go func(i int, req engine.Request) {
			defer wg.Done()
			results[i] = s.adviseOne(r.Context(), req)
		}(i, req)
	}
	wg.Wait()
	s.maybePersist()
	writeJSON(w, http.StatusOK, AdviseResponse{Results: results})
}

// adviseOne answers one advisory request through the resilience layer:
// breaker-guarded characterization, then profile-and-decide; any failure on
// that path falls back to degraded heuristic advice so the caller always
// gets an answer or a typed error.
func (s *Server) adviseOne(ctx context.Context, req engine.Request) AdviseResult {
	done, ok := s.breaker.Allow()
	if !ok {
		return s.degraded(ctx, req, "circuit breaker open")
	}
	var char framework.Characterization
	err := guard(func() error {
		var err error
		char, err = s.eng.Characterize(ctx, req.Config, req.Params)
		return err
	})
	done(err)
	if err != nil {
		return s.degraded(ctx, req, fmt.Sprintf("characterization failed: %v", err))
	}
	memoKey := ""
	if key, kerr := engine.CacheKey(req.Config, req.Params); kerr == nil {
		memoKey = key + "|" + req.Workload.Name + "|" + req.Current
		s.adviceMu.Lock()
		rec, ok := s.adviceMemo[memoKey]
		s.adviceMu.Unlock()
		if ok {
			return AdviseResult{Recommendation: &rec, Zone: rec.Zone.String()}
		}
	}
	var rec framework.Recommendation
	err = guard(func() error {
		var err error
		rec, err = s.eng.AdviseWith(ctx, char, req)
		return err
	})
	if err != nil {
		return s.degraded(ctx, req, fmt.Sprintf("advice failed: %v", err))
	}
	if memoKey != "" {
		s.adviceMu.Lock()
		if len(s.adviceMemo) >= adviceMemoCap {
			// The population is bounded by devices x apps x models in any
			// real deployment; hitting the cap means pathological inputs,
			// and a reset is cheaper than an eviction policy.
			s.adviceMemo = make(map[string]framework.Recommendation)
		}
		s.adviceMemo[memoKey] = rec
		s.adviceMu.Unlock()
	}
	return AdviseResult{Recommendation: &rec, Zone: rec.Zone.String()}
}

// adviceMemoCap bounds the advice memo; see adviseOne.
const adviceMemoCap = 4096

// degraded answers from the threshold-only heuristic, marking the result so
// callers know it carries no measured speedup, and annotating the request's
// trace with the reason.
func (s *Server) degraded(ctx context.Context, req engine.Request, reason string) AdviseResult {
	rec, err := framework.HeuristicAdvise(req.Config, req.Workload, req.Current)
	if err != nil {
		// Even the fallback needs a valid current model; this is a caller
		// mistake, not an engine failure.
		return AdviseResult{Error: err.Error(), ErrorKind: "invalid_request"}
	}
	s.metrics.degraded.Inc()
	_, span := telemetry.Start(ctx, "advisord.degraded",
		telemetry.String("device", req.Config.Name),
		telemetry.String("workload", req.Workload.Name))
	span.SetAttr("degraded", reason)
	span.End()
	s.log.Warn("degraded advice", "device", req.Config.Name,
		"workload", req.Workload.Name, "reason", reason)
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

func (s *Server) toEngineRequest(ar AdviseRequest) (engine.Request, error) {
	cfg, err := devices.ByName(ar.Device)
	if err != nil {
		return engine.Request{}, err
	}
	wl, err := catalog.ByName(ar.App, s.opt.Scale)
	if err != nil {
		return engine.Request{}, err
	}
	current := ar.Current
	if current == "" {
		current = "sc"
	}
	return engine.Request{Config: cfg, Params: s.opt.Params, Workload: wl, Current: current}, nil
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
	s.maybePersist()
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

// maybePersist snapshots the cache to disk when new characterizations were
// executed since the last snapshot.
func (s *Server) maybePersist() {
	if s.opt.CacheDir == "" {
		return
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	execs := s.eng.Stats().Characterizations.Executions
	if execs == s.lastSaved {
		return
	}
	if _, err := s.eng.SaveCache(s.opt.CacheDir); err != nil {
		s.log.Error("persist cache", "err", err)
		return
	}
	s.lastSaved = execs
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
