package perfbench

import (
	"bytes"
	"context"
	"testing"
)

// TestQuickSuiteEmitsValidArtifact is the end-to-end acceptance check behind
// `perfgate -run -quick`: the real declared suite, at quick scale, must
// produce an artifact that passes the schema validation Write applies. One iteration and
// no warmup keeps this a smoke test, not a benchmark.
func TestQuickSuiteEmitsValidArtifact(t *testing.T) {
	suite, err := DefaultSuite(SuiteOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(context.Background(), suite, RunOptions{Iterations: 1, Warmup: 0, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Write(&buf); err != nil {
		t.Fatalf("artifact failed schema validation: %v", err)
	}

	want := []string{
		"sweep/serial", "sweep/engine", "sweep/engine-batch",
		"sweep/engine-heatmap",
		"memo/cold", "memo/warm",
		"microbench/mb1", "microbench/mb2", "microbench/mb3",
		"mb2/compiled-run",
		"comm/run", "comm/checked",
		"advisord/advise",
		"fleet/routed-advise",
	}
	if len(a.Scenarios) != len(want) {
		t.Fatalf("suite has %d scenarios, want %d", len(a.Scenarios), len(want))
	}
	for _, name := range want {
		s, ok := a.Scenario(name)
		if !ok {
			t.Errorf("suite missing scenario %q", name)
			continue
		}
		if s.MedianNS <= 0 {
			t.Errorf("%s median = %v, want > 0", name, s.MedianNS)
		}
	}
}

// TestSuiteScenariosDeclareComponents keeps the component labels — the axis
// BENCHMARKS.md groups the trajectory by — from silently going stale.
func TestSuiteScenariosDeclareComponents(t *testing.T) {
	suite, err := DefaultSuite(SuiteOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{
		"framework": true, "engine": true, "microbench": true,
		"comm": true, "advisord": true, "fleet": true,
	}
	for _, s := range suite {
		if s.Doc == "" {
			t.Errorf("%s has no doc line", s.Name)
		}
		if !known[s.Component] {
			t.Errorf("%s has unknown component %q", s.Name, s.Component)
		}
	}
}
