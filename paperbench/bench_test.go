package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/microbench"
	"igpucomm/internal/telemetry"
)

// benchmarkFile is the part of BENCHMARK.json the tests hold the program to.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

var smokeRef struct {
	once sync.Once
	ref  *Reference
	err  error
}

// smokeReference is the reference at the smoke scale (catalog.Quick: the
// catalog.Micro lanedet frame fails lanedet validation), built once through
// the same serial generator as the committed full-scale one.
func smokeReference(t *testing.T) *Reference {
	t.Helper()
	smokeRef.once.Do(func() {
		smokeRef.ref, smokeRef.err = buildReference(context.Background(), microbench.TestParams(), catalog.Quick)
	})
	if smokeRef.err != nil {
		t.Fatal(smokeRef.err)
	}
	return smokeRef.ref
}

// smoke runs one workload at catalog.Quick with TestParams and returns the
// parsed result line and the whole output.
func smoke(t *testing.T, workload string, ref *Reference, trace bool) (result, string) {
	t.Helper()
	o := options{
		Workload: workload,
		Seed:     7,
		Duration: 150 * time.Millisecond,
		Trace:    trace,
		Params:   microbench.TestParams(),
		Scale:    catalog.Quick,
		Ref:      ref,
		OutDir:   t.TempDir(),
	}
	var out bytes.Buffer
	if err := run(context.Background(), o, &out); err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	return res, out.String()
}

// TestMetricListsMatchBenchmarkFile keeps the program's metric lists and
// BENCHMARK.json in step.
func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	f := loadBenchmarkFile(t)
	for _, c := range []struct {
		name      string
		file, got []metricDef
	}{{"end_to_end", f.EndToEnd, endToEnd}, {"per_layer", f.PerLayer, perLayer}} {
		want := map[string]string{}
		for _, d := range c.file {
			want[d.Name] = d.Unit
		}
		if len(want) != len(c.got) {
			t.Errorf("%s: BENCHMARK.json names %d metrics, the program %d", c.name, len(want), len(c.got))
		}
		for _, d := range c.got {
			if unit, ok := want[d.Name]; !ok || unit != d.Unit {
				t.Errorf("%s: program metric %s [%s] is %q in BENCHMARK.json", c.name, d.Name, d.Unit, unit)
			}
		}
	}
	if len(f.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for _, w := range f.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not in the program", w.Name)
		}
	}
}

// TestSmokeEveryWorkload runs every workload untraced and traced at the
// smoke scale: every metric BENCHMARK.json names is printed with its unit,
// and no operation fails.
func TestSmokeEveryWorkload(t *testing.T) {
	f := loadBenchmarkFile(t)
	ref := smokeReference(t)
	for _, w := range f.Workloads {
		for _, trace := range []bool{false, true} {
			res, out := smoke(t, w.Name, ref, trace)
			defs := f.EndToEnd
			if trace {
				defs = f.PerLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, d.Name, m, d.Unit)
				}
				if !strings.Contains(out, d.Name) {
					t.Errorf("%s trace=%v: summary does not print %s", w.Name, trace, d.Name)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if trace && res.Metrics["error_rate"].Value != 0 {
				t.Errorf("%s: error_rate = %v", w.Name, res.Metrics["error_rate"].Value)
			}
			if !trace && res.Metrics["op_p50_ms"].Value <= 0 {
				t.Errorf("%s: op_p50_ms = %v", w.Name, res.Metrics["op_p50_ms"].Value)
			}
		}
	}
}

// TestCountsRepeatExactly: the simulated work counts and the cold-start
// execution count are the same on every run.
func TestCountsRepeatExactly(t *testing.T) {
	ref := smokeReference(t)
	a, _ := smoke(t, sweepName, ref, true)
	b, _ := smoke(t, sweepName, ref, true)
	for name, m := range a.Metrics {
		if !strings.HasPrefix(name, "sim.") || name == "sim.host_ns_per_gpu_access" {
			continue
		}
		if m.Value <= 0 || m.Value != b.Metrics[name].Value {
			t.Errorf("%s: %v then %v", name, m.Value, b.Metrics[name].Value)
		}
	}
	c, _ := smoke(t, coldStart, ref, true)
	if got := c.Metrics["engine.executions"].Value; got != 3 {
		t.Errorf("engine.executions = %v per session, want 3", got)
	}
}

// TestMutatedReferenceFailsOperations: changing one reference value turns
// the operations that depend on it into failures.
func TestMutatedReferenceFailsOperations(t *testing.T) {
	clone := func() *Reference {
		data, err := json.Marshal(smokeReference(t))
		if err != nil {
			t.Fatal(err)
		}
		r, err := loadReference(data)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	rec := clone()
	q := coldQuestions()[0]
	for i, r := range rec.Recommendations {
		if (question{r.Device, r.App, r.Current}) == q {
			rec.Recommendations[i].SpeedupRatio += 0.5
		}
	}
	rec.index()
	rep := clone()
	rep.Reports[len(rep.Reports)-1].Sim.GPUInstructions++
	rep.index()

	for _, c := range []struct {
		workload string
		ref      *Reference
		all      bool
	}{{serveWarm, rec, false}, {coldStart, rec, true}, {sweepName, rep, true}} {
		res, _ := smoke(t, c.workload, c.ref, false)
		switch {
		case res.Correct || res.Failed == 0:
			t.Errorf("%s: mutated reference not detected: %+v", c.workload, res)
		case c.all && res.Failed != res.Attempted:
			t.Errorf("%s: %d of %d operations failed, want all", c.workload, res.Failed, res.Attempted)
		case !c.all && res.Failed == res.Attempted:
			t.Errorf("%s: every operation failed, want only calls asking the mutated question", c.workload)
		}
	}
}

// TestSelfTimeSubtractsChildUnion: a span's self time excludes the union
// of its children's intervals, clipped to the span, so overlapping
// children are not subtracted twice.
func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	var now time.Duration
	epoch := time.Unix(0, 0)
	tr := telemetry.NewTracer(telemetry.TracerOptions{Clock: func() time.Time { return epoch.Add(now) }})
	at := func(d time.Duration) { now = d * time.Millisecond }

	ctx := telemetry.WithTracer(context.Background(), tr)
	pctx, parent := telemetry.Start(ctx, "parent")
	at(1)
	_, a := telemetry.Start(pctx, "child")
	at(3)
	_, b := telemetry.Start(pctx, "child")
	at(4)
	a.End()
	at(6)
	b.End()
	at(8)
	_, c := telemetry.Start(pctx, "child")
	at(10)
	parent.End()
	at(12)
	c.End()

	led := analyze(tr.Spans())
	if _, dur, self := led.sum("parent"); dur != 10*time.Millisecond || self != 3*time.Millisecond {
		t.Errorf("parent dur %v self %v, want 10ms and 3ms", dur, self)
	}
	if n, _, _ := led.sum("child"); n != 3 {
		t.Errorf("%d child spans, want 3", n)
	}
	if got := led.leafTime(); got != 10*time.Millisecond {
		t.Errorf("leaf time %v, want 10ms", got)
	}
}
