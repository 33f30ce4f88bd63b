package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"igpucomm/internal/advisord"
	"igpucomm/internal/telemetry"
)

// callHeader carries the benchmark's call id. advisord accepts it as the
// request's trace id, and the handler timer keys its measurements by it.
const callHeader = "X-Trace-Id"

// handlerTimer wraps advisord's handler. While a tracer is installed it puts
// the tracer on each request's context, opens a bench.handler span around
// ServeHTTP and records the time spent inside it per call id; otherwise it
// only delegates.
type handlerTimer struct {
	next   http.Handler
	tracer atomic.Pointer[telemetry.Tracer]

	mu   sync.Mutex
	durs map[string]time.Duration
}

func newHandlerTimer(next http.Handler) *handlerTimer {
	return &handlerTimer{next: next, durs: make(map[string]time.Duration)}
}

// trace installs tr (nil: stop tracing). Installing a tracer forgets the
// measurements of earlier traced phases.
func (h *handlerTimer) trace(tr *telemetry.Tracer) {
	if tr != nil {
		h.mu.Lock()
		h.durs = make(map[string]time.Duration)
		h.mu.Unlock()
	}
	h.tracer.Store(tr)
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tracer.Load()
	if tr == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	ctx, span := telemetry.Start(telemetry.WithTracer(r.Context(), tr), "bench.handler")
	t0 := time.Now()
	h.next.ServeHTTP(w, r.WithContext(ctx))
	d := time.Since(t0)
	span.End()
	h.mu.Lock()
	h.durs[r.Header.Get(callHeader)] = d
	h.mu.Unlock()
}

// handlerTime returns the time the handler spent on call id.
func (h *handlerTimer) handlerTime(id string) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.durs[id]
	return d, ok
}

// newClient returns an HTTP/1.1 client holding at most one keep-alive
// connection. It never retries: a POST is not replayable.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// discardLogger silences advisord's per-request log.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// postAdvise POSTs one /v1/advise body and decodes the answer. It returns
// the response size in bytes; any transport error, non-200 status or
// undecodable body is an error.
func postAdvise(ctx context.Context, cl *http.Client, url string, body []byte, id string) (advisord.AdviseResponse, int, error) {
	var out advisord.AdviseResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/advise", bytes.NewReader(body))
	if err != nil {
		return out, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(callHeader, id)
	resp, err := cl.Do(req)
	if err != nil {
		return out, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, 0, fmt.Errorf("read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return out, len(raw), fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return out, len(raw), fmt.Errorf("decode response: %w", err)
	}
	return out, len(raw), nil
}

// adviseBody encodes a batch of questions as a /v1/advise body.
func adviseBody(qs []question) ([]byte, error) {
	var body advisord.AdviseBody
	for _, q := range qs {
		body.Requests = append(body.Requests, advisord.AdviseRequest{Device: q.Device, App: q.App, Current: q.Current})
	}
	return json.Marshal(body)
}

// checkAdvice compares a response against the reference answers to qs. A
// per-result error, a degraded answer or any differing field is a failure.
func checkAdvice(ref *Reference, qs []question, resp advisord.AdviseResponse) error {
	if len(resp.Results) != len(qs) {
		return fmt.Errorf("%d results for %d questions", len(resp.Results), len(qs))
	}
	for i, r := range resp.Results {
		switch {
		case r.Error != "":
			return fmt.Errorf("%v: %s: %s", qs[i], r.ErrorKind, r.Error)
		case r.Degraded:
			return fmt.Errorf("%v: degraded: %s", qs[i], r.DegradedReason)
		case r.Recommendation == nil:
			return fmt.Errorf("%v: no recommendation", qs[i])
		case r.Zone != r.Recommendation.Zone.String():
			return fmt.Errorf("%v: zone %q disagrees with recommendation zone %q", qs[i], r.Zone, r.Recommendation.Zone)
		}
		if err := ref.checkRecommendation(qs[i], *r.Recommendation); err != nil {
			return err
		}
	}
	return nil
}

// statusz is the part of advisord's /statusz the benchmark reads.
type statusz struct {
	Resilience struct {
		RequestsShed      uint64 `json:"requests_shed"`
		DegradedResponses uint64 `json:"degraded_responses"`
	} `json:"resilience"`
}

func getStatusz(ctx context.Context, cl *http.Client, url string) (statusz, error) {
	var st statusz
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/statusz", nil)
	if err != nil {
		return st, err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("statusz: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("statusz: %w", err)
	}
	return st, nil
}

// failures counts failed operations and keeps the first failure's message
// for the run's diagnostics.
type failures struct {
	n     int
	first string
}

func (f *failures) add(err error) {
	if f.n == 0 {
		f.first = err.Error()
	}
	f.n++
}
