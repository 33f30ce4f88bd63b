package advisord

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/devices"
	"igpucomm/internal/faults"
)

// postRaw POSTs body to /v1/advise and returns the status and the decoded
// JSON error message ("" on 200).
func postRaw(t *testing.T, url string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/advise", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return resp.StatusCode, ""
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("status %d without a JSON error (%v)", resp.StatusCode, err)
	}
	return resp.StatusCode, e.Error
}

// batchOf builds an n-question batch cycling through every device x app x
// current-model question.
func batchOf(n int) AdviseBody {
	var all []AdviseRequest
	for _, cfg := range devices.All() {
		for _, app := range catalog.Names() {
			for _, cur := range []string{"sc", "um", "zc"} {
				all = append(all, AdviseRequest{Device: cfg.Name, App: app, Current: cur})
			}
		}
	}
	body := AdviseBody{Requests: make([]AdviseRequest, n)}
	for i := range body.Requests {
		body.Requests[i] = all[i%len(all)]
	}
	return body
}

// One /v1/advise body is bounded before any question starts: a batch at the
// question cap is answered, one question more is rejected with 413, and so
// is a body over the byte cap; a malformed body is a 400. Every rejection
// carries the JSON error shape and starts no engine work.
func TestAdviseBatchLimits(t *testing.T) {
	srv, ts := testServer(t)

	atCap, err := json.Marshal(batchOf(maxAdviseQuestions))
	if err != nil {
		t.Fatal(err)
	}
	if code, msg := postRaw(t, ts.URL, atCap); code != http.StatusOK {
		t.Fatalf("batch at the cap: status %d (%s), want 200", code, msg)
	}
	if got := srv.eng.Stats().Requests; got != maxAdviseQuestions {
		t.Fatalf("engine answered %d questions, want %d", got, maxAdviseQuestions)
	}

	overCap, err := json.Marshal(batchOf(maxAdviseQuestions + 1))
	if err != nil {
		t.Fatal(err)
	}
	huge := []byte(`{"requests":[{"device":"` + strings.Repeat("x", maxAdviseBodyBytes) + `"}]}`)
	for _, tc := range []struct {
		name string
		body []byte
		want int
	}{
		{"over the question cap", overCap, http.StatusRequestEntityTooLarge},
		{"over the byte cap", huge, http.StatusRequestEntityTooLarge},
		{"malformed", []byte(`{"requests":[`), http.StatusBadRequest},
		{"empty batch", []byte(`{"requests":[]}`), http.StatusBadRequest},
	} {
		if code, msg := postRaw(t, ts.URL, tc.body); code != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, code, msg, tc.want)
		}
	}
	if got := srv.eng.Stats().Requests; got != maxAdviseQuestions {
		t.Errorf("rejected bodies reached the engine: %d questions, want %d", got, maxAdviseQuestions)
	}
}

// Profiling failures degrade the question with a reason naming the advice
// stage but never trip the characterization breaker, and neither does a
// request deadline that ends characterization.
func TestBreakerIgnoresProfilingAndDeadlineFailures(t *testing.T) {
	q := AdviseBody{Requests: []AdviseRequest{{Device: devices.TX2Name, App: "shwfs", Current: "zc"}}}

	activatePlan(t, 6, faults.Rule{Point: "profile.collect", Mode: faults.ModeError, Every: 1})
	srv, ts := resilientServer(t, Options{BreakerThreshold: 1})
	for i := 0; i < 3; i++ {
		res := postAdvise(t, ts, q).Results[0]
		if !res.Degraded || !strings.HasPrefix(res.DegradedReason, "advice failed") {
			t.Fatalf("profiling failure %d: %+v, want degraded with an advice-stage reason", i, res)
		}
	}
	if got := srv.breaker.State(); got != BreakerClosed {
		t.Fatalf("breaker = %s after profiling failures, want closed", got)
	}
	faults.Deactivate()

	activatePlan(t, 7, faults.Rule{
		Point: "engine.characterize", Mode: faults.ModeLatency, Every: 1, Delay: 200 * time.Millisecond,
	})
	srv, ts = resilientServer(t, Options{BreakerThreshold: 1, RequestTimeout: 20 * time.Millisecond})
	res := postAdvise(t, ts, q).Results[0]
	if !res.Degraded || !strings.HasPrefix(res.DegradedReason, "characterization failed") {
		t.Fatalf("deadline in characterization: %+v, want degraded with a characterization-stage reason", res)
	}
	if got := srv.breaker.State(); got != BreakerClosed {
		t.Fatalf("breaker = %s after a deadline, want closed", got)
	}
}
