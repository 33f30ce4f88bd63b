package advisord

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/devices"
	"igpucomm/internal/engine"
	"igpucomm/internal/microbench"
	"igpucomm/internal/telemetry"
)

// serveAdvise answers body on srv's handler in the calling goroutine,
// tracing into tr when it is not nil.
func serveAdvise(t *testing.T, srv *Server, tr *telemetry.Tracer, body AdviseBody) AdviseResponse {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/advise", bytes.NewReader(buf))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req.WithContext(telemetry.WithTracer(req.Context(), tr)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/advise: status %d: %s", rec.Code, rec.Body)
	}
	var out AdviseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// An unknown device is an invalid request carrying devices.ByName's error,
// word for word.
func TestAdviseUnknownDeviceKeepsByNameError(t *testing.T) {
	srv, _ := testServer(t)
	out := serveAdvise(t, srv, nil, AdviseBody{Requests: []AdviseRequest{{Device: "no-such-board", App: "shwfs"}}})
	const want = `devices: unknown platform "no-such-board" (have jetson-nano, jetson-tx2, jetson-agx-xavier, embedded-apu)`
	if res := out.Results[0]; res.Error != want || res.ErrorKind != "invalid_request" || res.Recommendation != nil {
		t.Errorf("result = %+v, want invalid_request %q", res, want)
	}
}

// The APU profile resolves through devices.ByName but is not in All(); the
// server's device table still answers it.
func TestAdviseAnswersEmbeddedAPU(t *testing.T) {
	srv, _ := testServer(t)
	out := serveAdvise(t, srv, nil, AdviseBody{Requests: []AdviseRequest{{Device: devices.APUName, App: "shwfs"}}})
	res := out.Results[0]
	if err := res.Check(); err != nil || res.Error != "" || res.Degraded {
		t.Fatalf("result = %+v (%v), want measured advice", res, err)
	}
	if res.Recommendation.Platform != devices.APUName {
		t.Errorf("platform = %q, want %q", res.Recommendation.Platform, devices.APUName)
	}
}

// Parameters no key can be derived from leave every question answerable:
// each degrades with the derivation error, and the degraded answer, its log
// line and its span all name the device asked about.
func TestAdviseDegradesWhenKeyCannotBeDerived(t *testing.T) {
	p := microbench.TestParams()
	p.MB2Fractions = append(p.MB2Fractions, math.NaN())
	var logs bytes.Buffer
	srv := New(engine.New(engine.Options{Workers: 2}), Options{
		Params: p, Scale: catalog.Quick, Logger: slog.New(slog.NewTextHandler(&logs, nil)),
		BreakerThreshold: 1,
	})
	tr := telemetry.NewTracer(telemetry.TracerOptions{})
	for i := 0; i < 2; i++ {
		out := serveAdvise(t, srv, tr, AdviseBody{Requests: []AdviseRequest{{Device: devices.XavierName, App: "shwfs", Current: "zc"}}})
		res := out.Results[0]
		const reason = "advice failed: engine: hash cache key: json: unsupported value: NaN"
		if err := res.Check(); err != nil || !res.Degraded || res.DegradedReason != reason {
			t.Fatalf("result = %+v (%v), want degraded for %q", res, err, reason)
		}
		if res.Recommendation.Platform != devices.XavierName {
			t.Errorf("degraded platform = %q, want %q", res.Recommendation.Platform, devices.XavierName)
		}
	}
	if !strings.Contains(logs.String(), "msg=\"degraded advice\" device="+devices.XavierName) {
		t.Errorf("no degraded-advice log line naming %s in:\n%s", devices.XavierName, logs.String())
	}
	var spans int
	for _, sp := range tr.Spans() {
		if sp.Name != "advisord.degraded" {
			continue
		}
		spans++
		var named bool
		for _, a := range sp.Attrs() {
			named = named || a.Key == "device" && a.Value == devices.XavierName
		}
		if !named {
			t.Errorf("advisord.degraded attrs = %v, want device=%s", sp.Attrs(), devices.XavierName)
		}
	}
	if spans != 2 {
		t.Errorf("%d advisord.degraded spans, want 2", spans)
	}
	if got := srv.breaker.State(); got != BreakerClosed {
		t.Errorf("breaker %s, want closed: a key failure is no characterization failure", got)
	}
}
