// Package perfbench is the repo's performance harness: a declared suite of
// scenarios covering every hot path the ROADMAP cares about (the
// serial-vs-parallel advisory sweep, the engine's memo cache warm and cold,
// the three device-characterization micro-benchmarks, advisord request
// latency over real HTTP, and checked-mode overhead), executed with repeated
// interleaved iterations and summarized with robust statistics (median, MAD,
// min, p95).
//
// A run emits a schema-versioned BENCH_<timestamp>.json artifact — the
// machine-readable perf trajectory — annotated with build identity, host
// facts and iteration metadata. cmd/perfgate gates each artifact on its
// cross-scenario Relations, ratios and caps that hold on any host; absolute
// medians are host-dependent and are not compared across runs.
//
// Timing capture goes through internal/telemetry: every timed iteration is
// recorded into a per-run histogram vec and wrapped in a span, so a traced
// perfgate run can be inspected with the same tooling as the service.
package perfbench

import "context"

// Scenario is one named, repeatable measurement.
type Scenario struct {
	// Name identifies the scenario in artifacts and relations; it must
	// be unique within a suite and stable across commits (renaming one
	// breaks its trajectory).
	Name string
	// Component is the layer the scenario exercises ("engine",
	// "framework", "microbench", "comm", "advisord").
	Component string
	// Doc is a one-line description for the human table.
	Doc string
	// Prepare performs untimed setup and returns the timed body plus an
	// optional cleanup (nil when there is nothing to tear down). The body
	// is invoked once per iteration; everything it does is on the clock.
	Prepare func(ctx context.Context) (body func(ctx context.Context) error, cleanup func(), err error)
}
