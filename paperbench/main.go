// Command paperbench is the repository's paper-scale benchmark: it measures
// what one answer of the tuning advisor costs, end to end and layer by layer,
// at the scale users get (microbench.DefaultParams, catalog.Full, the
// advisord defaults) and at GOMAXPROCS = number of CPUs.
//
// Usage, from the root of a checkout:
//
//	bash paperbench/run.sh --workload serve-warm --seed 1 --seconds 20 --trace 0
//
// Workloads, each driven from this one process with at most two client
// goroutines and connections:
//
//   - serve-warm: a closed loop of two clients, each on one keep-alive
//     HTTP/1.1 connection to one in-process advisord.Server, POSTing
//     /v1/advise batches of 1–4 of the 27 questions (3 devices × 3 apps ×
//     current ∈ {sc, um, zc}). Set-up primes all 27, so every answer is a
//     memo hit: advisord decode/translate/admission/encode, apps/catalog
//     and the engine memo read path.
//   - cold-start: back-to-back sessions, each a fresh engine.New plus
//     advisord.Server answering the 9-question batch (3 devices × 3 apps,
//     current sc): the memo write path (singleflight), MB1/MB2/MB3,
//     profiling and GPU kernel compilation on fresh platforms.
//   - sweep: the paper's evaluation, the 45-point engine.Explore over 3
//     devices × 3 apps × comm.AllModels on one primed engine: comm model
//     runs, compiled-kernel replay and cache.DoBatch, with no HTTP or memo.
//
// Every operation is checked against reference.json, the full-scale outputs
// of the serial framework path (regenerate with -write-reference); a wrong
// answer is a failed operation, not a fast one.
//
// With --trace 0 the run measures untraced and reports the end-to-end
// metrics. With --trace 1 it measures once untraced and once with the
// telemetry tracer installed on every context it passes in and on every
// HTTP request, then reports the per-layer metrics, writes a Chrome trace
// and a per-layer self-time table under -out, and prints every metric. The
// benchmark adds its spans only around the public calls it makes.
//
// Deliberately unmeasured layers: the fleet routing hop (a 3-shard fleet
// needs more connections than there are CPUs) and heat recording
// (/v1/heatmap is off the default advice path).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/microbench"
)

func main() {
	workload := flag.String("workload", "", "workload to run: serve-warm, cold-start or sweep")
	seed := flag.Int64("seed", 1, "seed for the generated load")
	seconds := flag.Float64("seconds", 20, "measured seconds per phase")
	trace := flag.Int("trace", 0, "1: add the traced run and report per-layer metrics")
	out := flag.String("out", "", "directory for the traced run's Chrome trace and layer table")
	writeRef := flag.String("write-reference", "", "regenerate the full-scale reference into this file and exit")
	flag.Parse()

	runtime.GOMAXPROCS(runtime.NumCPU())
	ctx := context.Background()
	if *writeRef != "" {
		if err := writeReference(ctx, *writeRef); err != nil {
			fatal(err)
		}
		return
	}
	ref, err := loadReference(referenceJSON)
	if err != nil {
		fatal(err)
	}
	o := options{
		Workload: *workload,
		Seed:     *seed,
		Duration: time.Duration(*seconds * float64(time.Second)),
		Trace:    *trace == 1,
		Params:   microbench.DefaultParams(),
		Scale:    catalog.Full,
		Ref:      ref,
		OutDir:   *out,
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if err := run(ctx, o, os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperbench:", err)
	os.Exit(1)
}

// options is one benchmark run's configuration.
type options struct {
	Workload string
	Seed     int64
	// Duration is how long each measured phase runs.
	Duration time.Duration
	// Trace adds the traced phase and switches the result to the
	// per-layer metrics.
	Trace  bool
	Params microbench.Params
	Scale  catalog.Scale
	Ref    *Reference
	// OutDir receives the traced run's files ("": write none).
	OutDir string
}

// outcome is what a workload measured: operation counts and both metric
// sets (Layer is filled only by traced runs).
type outcome struct {
	Attempted, Failed int
	E2E               map[string]float64
	Layer             map[string]float64
	// Table is the traced phase's per-layer self-time table.
	Table string
	// Notes are printed with the summary: sample counts, and figures that
	// exist only when the sample is large enough.
	Notes []string
	// Lat are the untraced phase's operation latencies.
	Lat []time.Duration
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var workloads = map[string]func(context.Context, options) (*outcome, error){
	"serve-warm": runServeWarm,
	"cold-start": runColdStart,
	"sweep":      runSweep,
}

// run executes one workload and prints the human summary followed by the
// JSON result line.
func run(ctx context.Context, o options, w io.Writer) error {
	fn, ok := workloads[o.Workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q (have serve-warm, cold-start, sweep)", o.Workload)
	}
	if o.Duration <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	oc, err := fn(ctx, o)
	if err != nil {
		return fmt.Errorf("%s: %w", o.Workload, err)
	}
	oc.E2E["peak_rss_mb"] = peakRSSMB()
	if o.Trace {
		oc.Layer["error_rate"] = float64(oc.Failed) / float64(oc.Attempted)
		for _, d := range perLayer {
			if _, ok := oc.Layer[d.Name]; !ok && !d.measures(o.Workload) {
				oc.Layer[d.Name] = 0
			}
		}
	}

	fmt.Fprintf(w, "paperbench: workload=%s seed=%d GOMAXPROCS=%d scale=%s params=%s phase=%s attempted=%d failed=%d\n",
		o.Workload, o.Seed, runtime.GOMAXPROCS(0), o.Ref.Scale, o.Ref.Params, o.Duration, oc.Attempted, oc.Failed)
	fmt.Fprintf(w, "note: %d operations, latency p25/p50/p75/max = %.4f/%.4f/%.4f/%.4f ms\n", len(oc.Lat),
		ms(quantile(oc.Lat, 0.25)), ms(quantile(oc.Lat, 0.5)), ms(quantile(oc.Lat, 0.75)), ms(quantile(oc.Lat, 1)))
	for _, n := range oc.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	printMetrics(w, "end-to-end (untraced)", endToEnd, oc.E2E)
	sel, vals := endToEnd, oc.E2E
	if o.Trace {
		printMetrics(w, "per-layer (traced)", perLayer, oc.Layer)
		fmt.Fprint(w, oc.Table)
		sel, vals = perLayer, oc.Layer
	}
	res := result{
		Correct:   oc.Failed == 0,
		Attempted: oc.Attempted,
		Failed:    oc.Failed,
		Metrics:   make(map[string]metric, len(sel)),
	}
	for _, d := range sel {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s was not measured (%v)", o.Workload, d.Name, v)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func printMetrics(w io.Writer, title string, defs []metricDef, vals map[string]float64) {
	fmt.Fprintf(w, "-- %s\n", title)
	for _, d := range defs {
		fmt.Fprintf(w, "%-30s %16.6g %s\n", d.Name, vals[d.Name], d.Unit)
	}
}

// reportFailures writes a phase's failure count and first failure to
// standard error.
func reportFailures(f failures) {
	if f.n > 0 {
		fmt.Fprintf(os.Stderr, "paperbench: %d failed operation(s); first: %s\n", f.n, f.first)
	}
}
