package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric, its unit, and the workloads that
// exercise its layer (empty: all). A traced run of any other workload
// reports it as 0 — that workload bypasses the layer.
type metricDef struct {
	Name, Unit string
	Workloads  []string
}

// endToEnd are the metrics a user of the advisor sees, reported by every
// workload with tracing off. An operation is one /v1/advise call
// (serve-warm), one session from send to its last answer (cold-start) or
// one 45-point sweep (sweep); an answer is one question answered
// (serve-warm, cold-start) or one device × app × model point measured
// (sweep).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s"},
	{Name: "op_p50_ms", Unit: "ms"},
	{Name: "answers_per_s", Unit: "1/s"},
	{Name: "peak_rss_mb", Unit: "MB"},
}

const (
	serveWarm = "serve-warm"
	coldStart = "cold-start"
	sweepName = "sweep"
)

// perLayer are the traced run's metrics. Times are means per operation
// unless named per call of the probed function.
var perLayer = []metricDef{
	{Name: "telemetry.overhead_ratio", Unit: "ratio"},
	{Name: "error_rate", Unit: "ratio"},

	{Name: "advisord.handler_ms", Unit: "ms", Workloads: []string{serveWarm}},
	{Name: "advisord.transport_ms", Unit: "ms", Workloads: []string{serveWarm}},
	{Name: "advisord.decode_ms", Unit: "ms", Workloads: []string{serveWarm}},
	{Name: "catalog.build_orbslam_ms", Unit: "ms", Workloads: []string{serveWarm}},
	{Name: "catalog.build_shwfs_ms", Unit: "ms", Workloads: []string{serveWarm}},
	{Name: "catalog.build_lanedet_ms", Unit: "ms", Workloads: []string{serveWarm}},
	{Name: "engine.cache_key_us", Unit: "us", Workloads: []string{serveWarm}},
	{Name: "engine.characterize_hit_us", Unit: "us", Workloads: []string{serveWarm}},
	{Name: "advisord.encode_ms", Unit: "ms", Workloads: []string{serveWarm}},
	{Name: "advisord.response_bytes", Unit: "bytes", Workloads: []string{serveWarm}},
	{Name: "engine.characterize_misses", Unit: "count", Workloads: []string{serveWarm}},
	{Name: "engine.advise_calls", Unit: "count", Workloads: []string{serveWarm}},
	{Name: "advisord.shed", Unit: "count", Workloads: []string{serveWarm}},
	{Name: "advisord.degraded", Unit: "count", Workloads: []string{serveWarm}},
	{Name: "serve.orbslam_share", Unit: "ratio", Workloads: []string{serveWarm}},
	{Name: "serve.layer_coverage", Unit: "ratio", Workloads: []string{serveWarm}},

	// Self time of the characterizations that executed (cache=miss): their
	// fan-out and the wait for a worker slot, outside the MB spans.
	{Name: "engine.characterize_ms", Unit: "ms", Workloads: []string{coldStart}},
	{Name: "microbench.mb1_ms", Unit: "ms", Workloads: []string{coldStart}},
	{Name: "microbench.mb2_gpu_ms", Unit: "ms", Workloads: []string{coldStart}},
	{Name: "microbench.mb2_cpu_ms", Unit: "ms", Workloads: []string{coldStart}},
	{Name: "microbench.mb3_ms", Unit: "ms", Workloads: []string{coldStart}},
	{Name: "profile.collect_ms", Unit: "ms", Workloads: []string{coldStart}},
	{Name: "framework.advise_ms", Unit: "ms", Workloads: []string{coldStart}},
	{Name: "engine.executions", Unit: "count", Workloads: []string{coldStart}},
	{Name: "engine.shared", Unit: "count", Workloads: []string{coldStart}},
	// Summed leaf-span time over operation wall time: the busy cores.
	{Name: "engine.parallelism", Unit: "ratio", Workloads: []string{coldStart, sweepName}},

	{Name: "comm.sc_ms", Unit: "ms", Workloads: []string{sweepName}},
	{Name: "comm.sc-async_ms", Unit: "ms", Workloads: []string{sweepName}},
	{Name: "comm.um_ms", Unit: "ms", Workloads: []string{sweepName}},
	{Name: "comm.zc_ms", Unit: "ms", Workloads: []string{sweepName}},
	{Name: "comm.hybrid_ms", Unit: "ms", Workloads: []string{sweepName}},
	{Name: "sweep.first_s", Unit: "s", Workloads: []string{sweepName}},
	{Name: "sim.host_ns_per_gpu_access", Unit: "ns", Workloads: []string{sweepName}},
	{Name: "sim.total_cycles", Unit: "count", Workloads: []string{sweepName}},
	{Name: "sim.gpu_instructions", Unit: "count", Workloads: []string{sweepName}},
	{Name: "sim.gpu_transactions", Unit: "count", Workloads: []string{sweepName}},
	{Name: "sim.gpu_l1_accesses", Unit: "count", Workloads: []string{sweepName}},
	{Name: "sim.gpu_llc_accesses", Unit: "count", Workloads: []string{sweepName}},
	{Name: "sim.cpu_instructions", Unit: "count", Workloads: []string{sweepName}},
	{Name: "sim.dram_bytes", Unit: "bytes", Workloads: []string{sweepName}},
}

// measures reports whether workload exercises the metric's layer.
func (d metricDef) measures(workload string) bool {
	if len(d.Workloads) == 0 {
		return true
	}
	for _, w := range d.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// quantile returns the q-quantile (0..1) of ds by linear interpolation
// between closest ranks; 0 for no samples.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[hi]-s[lo]))
}

// tailP99 returns the 99th percentile when at least ten samples lie beyond
// it, and 0 when the sample is too small to have one.
func tailP99(ds []time.Duration) time.Duration {
	if len(ds) < 1000 {
		return 0
	}
	return quantile(ds, 0.99)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// timeSetups runs set-up n times and returns the median duration and the
// last set-up's value. Every earlier one is released with drop and
// collected before the next starts, so set-ups never overlap in memory.
func timeSetups[T any](n int, setup func() (T, error), drop func(T)) (time.Duration, T, error) {
	var last T
	durs := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			drop(last)
			var zero T
			last = zero
			runtime.GC()
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			var zero T
			return 0, zero, err
		}
		durs = append(durs, time.Since(t0))
		last = v
	}
	return quantile(durs, 0.5), last, nil
}
