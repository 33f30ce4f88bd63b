package advisord

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/devices"
	"igpucomm/internal/engine"
	"igpucomm/internal/microbench"
)

// FuzzAdviseRequest feeds arbitrary bodies to the /v1/advise handler of a
// server whose engine already holds every device's characterization. The
// contract under fuzz: no panic (the recovery middleware would turn one into
// a 500, which the check rejects), and every response is either a 4xx with
// a JSON error, or a 200 with one result per question, each a complete
// recommendation or a typed error.
func FuzzAdviseRequest(f *testing.F) {
	for _, body := range []string{
		`{"requests":[{"device":"jetson-tx2","app":"shwfs","current":"sc"}]}`,
		`{"requests":[{"device":"jetson-tx2","app":"shwfs","current":"sc"},{"device":"jetson-tx2","app":"lanedet","current":"sc"},{"device":"jetson-tx2","app":"orbslam","current":"zc"}]}`,
		`{"requests":[{"device":"no-such-board","app":"shwfs"},{"device":"jetson-tx2","app":"no-such-app"},{"device":"jetson-tx2","app":"shwfs"}]}`,
		`{"requests":[{"device":"jetson-nano","app":"shwfs","current":"um"},{"device":"jetson-nano","app":"shwfs","current":"um"}]}`,
		`{"requests":[{"device":"jetson-agx-xavier","app":"orbslam","current":"zc"}]}`,
		`{"requests":[{"device":"jetson-tx2","app":"shwfs","current":"bogus"}]}`,
		`{"requests":[]}`,
		`{"requests":null}`,
		`{}`,
		`not json`,
		`{"requests":[`,
		`[]`,
		``,
	} {
		f.Add([]byte(body))
	}
	full, err := json.Marshal(batchOf(maxAdviseQuestions))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)

	p := microbench.TestParams()
	eng := engine.New(engine.Options{Workers: 2})
	for _, cfg := range devices.All() {
		if _, err := eng.Characterize(context.Background(), cfg, p); err != nil {
			f.Fatal(err)
		}
	}
	srv := New(eng, Options{Params: p, Scale: catalog.Micro, Logger: testLogger()})
	h := srv.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/advise", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			var e struct {
				Error string `json:"error"`
			}
			if rec.Code < 400 || rec.Code >= 500 {
				t.Fatalf("status %d, want 200 or a 4xx: %s", rec.Code, rec.Body)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("status %d without a JSON error: %s", rec.Code, rec.Body)
			}
			return
		}
		var sent AdviseBody
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&sent); err != nil {
			t.Fatalf("200 for a body the handler cannot decode: %v", err)
		}
		var out AdviseResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("undecodable 200 body: %v", err)
		}
		if len(out.Results) != len(sent.Requests) {
			t.Fatalf("%d results for %d questions", len(out.Results), len(sent.Requests))
		}
		for i, res := range out.Results {
			if err := res.Check(); err != nil {
				t.Fatalf("result %d for %+v: %v", i, sent.Requests[i], err)
			}
		}
	})
}
