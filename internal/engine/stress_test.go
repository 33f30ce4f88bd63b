package engine

import (
	"context"
	"errors"
	"sync"
	"testing"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/devices"
	"igpucomm/internal/framework"
	"igpucomm/internal/microbench"
)

// advise answers one request the way advisord and the DST harness do: the
// memoized characterization, then profile-and-decide against it.
func advise(ctx context.Context, e *Engine, req Request) (framework.Recommendation, error) {
	char, err := e.Characterize(ctx, req.Config, req.Params)
	if err != nil {
		return framework.Recommendation{}, err
	}
	return e.AdviseWith(ctx, char, req)
}

// adviseBatch answers reqs concurrently as one batch, the way advisord
// answers a /v1/advise body. Recommendations come back in request order;
// the error joins every request's failure.
func adviseBatch(ctx context.Context, e *Engine, reqs []Request) ([]framework.Recommendation, error) {
	e.NoteBatch()
	recs := make([]framework.Recommendation, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	wg.Add(len(reqs))
	for i := range reqs {
		go func(i int) {
			defer wg.Done()
			recs[i], errs[i] = advise(ctx, e, reqs[i])
		}(i)
	}
	wg.Wait()
	return recs, errors.Join(errs...)
}

// TestAdviseBatchStress hammers one engine from many goroutines with
// overlapping (device, params) keys and checks the singleflight contract:
// every unique key is characterized exactly once, every request still gets a
// full recommendation, and the cache counters are arithmetically consistent.
// Run with -race; the engine's only defense is real synchronization.
func TestAdviseBatchStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const goroutines = 32

	p := microbench.TestParams()
	names := []string{devices.NanoName, devices.TX2Name, devices.XavierName}
	apps := catalog.Names()

	// Every goroutine submits one batch covering all device x app pairs, so
	// all 32 batches contend for the same three characterization keys.
	var reqs []Request
	for _, dn := range names {
		cfg, err := devices.ByName(dn)
		if err != nil {
			t.Fatal(err)
		}
		for _, an := range apps {
			w, err := catalog.ByName(an, catalog.Quick)
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, Request{Config: cfg, Params: p, Workload: w, Current: "sc"})
		}
	}

	e := New(Options{Workers: 4})
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*len(reqs))
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			recs, err := adviseBatch(context.Background(), e, reqs)
			if err != nil {
				errs <- err
				return
			}
			for i, rec := range recs {
				if rec.Suggested == "" || rec.Platform != reqs[i].Config.Name {
					errs <- errMismatch(rec.Platform, reqs[i].Config.Name)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := e.Stats()
	// Exactly one execution per unique (config, params) key, no matter how
	// many goroutines raced for it.
	if st.Characterizations.Executions != uint64(len(names)) {
		t.Errorf("executions = %d, want %d (one per device)",
			st.Characterizations.Executions, len(names))
	}
	total := uint64(goroutines * len(reqs))
	if st.Requests != total {
		t.Errorf("requests = %d, want %d", st.Requests, total)
	}
	if st.Batches != goroutines {
		t.Errorf("batches = %d, want %d", st.Batches, goroutines)
	}
	// Every request either hit the cache or missed; every miss either
	// executed or piggybacked on an in-flight execution.
	c := st.Characterizations
	if c.Hits+c.Misses != total {
		t.Errorf("hits(%d) + misses(%d) != requests(%d)", c.Hits, c.Misses, total)
	}
	if c.Misses != c.Executions+c.Shared {
		t.Errorf("misses(%d) != executions(%d) + shared(%d)", c.Misses, c.Executions, c.Shared)
	}
	if c.InFlight != 0 {
		t.Errorf("in_flight = %d after quiescence, want 0", c.InFlight)
	}
	if c.Entries != len(names) {
		t.Errorf("entries = %d, want %d", c.Entries, len(names))
	}
}

type errMismatch2 struct{ got, want string }

func errMismatch(got, want string) error { return &errMismatch2{got, want} }

func (e *errMismatch2) Error() string {
	return "recommendation platform " + e.got + ", want " + e.want
}
