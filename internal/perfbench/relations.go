package perfbench

import (
	"fmt"
	"strings"
	"time"
)

// Relation is a cross-scenario performance invariant checked within ONE
// artifact: it pins an ordering the design promises on any host — "the
// pooled engine sweep beats the serial sweep", "the steady-state batch sweep
// stays 5x under the seed". A violation fails perfgate and CI.
type Relation struct {
	// Name identifies the invariant in reports.
	Name string `json:"name"`
	// Scenario is the scenario under test.
	Scenario string `json:"scenario"`
	// Reference, when non-empty, names the scenario whose median bounds
	// Scenario's: median(Scenario) <= MaxRatio * median(Reference).
	Reference string  `json:"reference,omitempty"`
	MaxRatio  float64 `json:"max_ratio,omitempty"`
	// MaxMedian, when non-zero, caps median(Scenario) absolutely. Absolute
	// caps are only meaningful at the scale they were calibrated for, so
	// they apply to quick artifacts only (the scale CI runs).
	MaxMedian time.Duration `json:"max_median,omitempty"`
	// Doc says what the invariant means and why it holds.
	Doc string `json:"doc"`
}

// seedSerialMedianNS is the committed quick-scale sweep/serial median of the
// pre-batch-kernel simulator core (the per-access interface-dispatch path).
// The batch core's headline promise is calibrated against it.
const seedSerialMedianNS = 435270729

// DefaultRelations are the invariants perfgate enforces on every artifact
// it runs or accepts as a candidate.
func DefaultRelations() []Relation {
	return []Relation{
		{
			Name:      "engine-beats-serial",
			Scenario:  "sweep/engine",
			Reference: "sweep/serial",
			MaxRatio:  1.0,
			Doc:       "the engine's pooled exploration must not lose to the serial framework sweep it parallelizes",
		},
		{
			Name:      "engine-batch-beats-serial",
			Scenario:  "sweep/engine-batch",
			Reference: "sweep/serial",
			MaxRatio:  1.0,
			Doc:       "the steady-state pooled sweep (warm compiled-kernel caches) must beat the fresh-platform serial sweep",
		},
		{
			Name:      "engine-batch-5x-vs-seed",
			Scenario:  "sweep/engine-batch",
			MaxMedian: seedSerialMedianNS / 5 * time.Nanosecond,
			Doc:       "steady-state batch-kernel sweep stays >=5x under the seed simulator's serial median (435.3ms quick scale)",
		},
		{
			Name:      "heatmap-overhead-bounded",
			Scenario:  "sweep/engine-heatmap",
			Reference: "sweep/engine-batch",
			MaxRatio:  1.5,
			Doc:       "heat recording may cost at most 50% over the heat-free batch sweep; the DISABLED path's cost is pinned separately by engine-batch-5x-vs-seed, which sweep/engine-batch runs with the nil-check branch compiled in",
		},
		{
			Name:      "memo-warm-beats-cold",
			Scenario:  "memo/warm",
			Reference: "memo/cold",
			MaxRatio:  1.0,
			Doc:       "a primed memo cache must answer characterizations faster than cold simulation",
		},
		{
			Name:      "routed-advise-2x",
			Scenario:  "fleet/routed-advise",
			Reference: "advisord/advise",
			MaxRatio:  2.0,
			Doc:       "routing a warm advise batch across a 3-shard fleet (device-name hashing, per-owner grouping, up to 3 loopback hops) may cost at most 2x the single-process advise path",
		},
	}
}

// RelationResult is one relation evaluated against an artifact.
type RelationResult struct {
	Relation Relation `json:"relation"`
	// Status is "ok", "violated", or "skipped" (scenario absent, or a
	// quick-only bound against a full-scale artifact).
	Status string `json:"status"`
	// Detail explains the outcome with the measured numbers.
	Detail string `json:"detail"`
}

// Relation statuses.
const (
	RelationOK       = "ok"
	RelationViolated = "violated"
	RelationSkipped  = "skipped"
)

// CheckRelations evaluates the relations against the artifact. Violations
// are counted by the second return; absent scenarios skip their relations
// (an artifact from an older suite is a review question, not a perf fact).
func CheckRelations(a Artifact, rels []Relation) ([]RelationResult, int) {
	var out []RelationResult
	violations := 0
	for _, r := range rels {
		res := checkRelation(a, r)
		if res.Status == RelationViolated {
			violations++
		}
		out = append(out, res)
	}
	return out, violations
}

func checkRelation(a Artifact, r Relation) RelationResult {
	res := RelationResult{Relation: r}
	s, ok := a.Scenario(r.Scenario)
	if !ok {
		res.Status = RelationSkipped
		res.Detail = fmt.Sprintf("scenario %s not in artifact", r.Scenario)
		return res
	}
	if r.MaxMedian > 0 {
		if !a.Quick {
			res.Status = RelationSkipped
			res.Detail = "absolute bound is quick-scale only"
			return res
		}
		if s.MedianNS > float64(r.MaxMedian.Nanoseconds()) {
			res.Status = RelationViolated
			res.Detail = fmt.Sprintf("%s median %s exceeds cap %s",
				r.Scenario, fmtNS(s.MedianNS), r.MaxMedian)
			return res
		}
		res.Status = RelationOK
		res.Detail = fmt.Sprintf("%s median %s within cap %s",
			r.Scenario, fmtNS(s.MedianNS), r.MaxMedian)
		return res
	}
	ref, ok := a.Scenario(r.Reference)
	if !ok {
		res.Status = RelationSkipped
		res.Detail = fmt.Sprintf("reference %s not in artifact", r.Reference)
		return res
	}
	bound := r.MaxRatio * ref.MedianNS
	if s.MedianNS > bound {
		res.Status = RelationViolated
		res.Detail = fmt.Sprintf("%s median %s exceeds %.2fx %s median %s",
			r.Scenario, fmtNS(s.MedianNS), r.MaxRatio, r.Reference, fmtNS(ref.MedianNS))
		return res
	}
	res.Status = RelationOK
	res.Detail = fmt.Sprintf("%s median %s <= %.2fx %s median %s",
		r.Scenario, fmtNS(s.MedianNS), r.MaxRatio, r.Reference, fmtNS(ref.MedianNS))
	return res
}

// FormatRelations renders the relation report.
func FormatRelations(results []RelationResult, violations int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "perfgate: %d relation(s)\n", len(results))
	for _, r := range results {
		fmt.Fprintf(&b, "%-26s %-9s %s\n", r.Relation.Name, r.Status, r.Detail)
	}
	if violations > 0 {
		fmt.Fprintf(&b, "VIOLATED: %d relation(s)\n", violations)
	} else {
		fmt.Fprintf(&b, "ok: all relations hold\n")
	}
	return b.String()
}
