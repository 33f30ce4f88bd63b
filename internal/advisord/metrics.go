package advisord

import (
	"fmt"
	"time"

	"igpucomm/internal/buildinfo"
	"igpucomm/internal/engine"
	"igpucomm/internal/faults"
	"igpucomm/internal/fleet"
	"igpucomm/internal/simnet"
	"igpucomm/internal/telemetry"
)

// Heat-map metric names, declared as consts so the metricname analyzer
// audits the family at one declaration site.
const (
	metricHeatmapRequestsTotal      = "igpucomm_heatmap_requests_total"
	metricHeatmapLastBuffersEntries = "igpucomm_heatmap_last_buffers_entries"
	metricHeatmapLastHotEntries     = "igpucomm_heatmap_last_hot_entries"
)

// serverMetrics is advisord's /metrics surface: HTTP-side instruments owned
// by the middleware plus scrape-time collectors over the engine's own atomic
// counters, so a scrape never takes a lock the hot path contends on.
type serverMetrics struct {
	reg *telemetry.Registry

	requests  *telemetry.CounterVec   // by endpoint
	responses *telemetry.CounterVec   // by status code
	latency   *telemetry.HistogramVec // by endpoint, seconds
	inFlight  *telemetry.Gauge

	shed     *telemetry.Counter // admission-queue overflow (429s)
	degraded *telemetry.Counter // heuristic answers served
	panics   *telemetry.Counter // handler panics recovered

	heatRequests *telemetry.Counter // /v1/heatmap explorations served
	heatBuffers  *telemetry.Gauge   // buffer rows in the last best-model heat entry
	heatHot      *telemetry.Gauge   // buffers classified hot in that entry
}

func newServerMetrics(eng *engine.Engine, clock simnet.Clock, start time.Time, info buildinfo.Info, br *Breaker, fl *fleet.State) *serverMetrics {
	reg := telemetry.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		requests: reg.CounterVec("igpucomm_http_requests_total",
			"HTTP requests received, by endpoint.", "endpoint"),
		responses: reg.CounterVec("igpucomm_http_responses_total",
			"HTTP responses sent, by status code.", "code"),
		latency: reg.HistogramVec("igpucomm_http_request_duration_seconds",
			"HTTP request latency, by endpoint.", "endpoint", nil),
		inFlight: reg.Gauge("igpucomm_http_requests_in_flight",
			"HTTP requests currently being served."),
		shed: reg.Counter("igpucomm_http_requests_shed_total",
			"Requests shed by the admission queue (answered 429)."),
		degraded: reg.Counter("igpucomm_advise_degraded_total",
			"Advisory answers served by the degraded-mode heuristic."),
		panics: reg.Counter("igpucomm_http_panics_recovered_total",
			"Handler panics recovered into 500 responses."),
		heatRequests: reg.Counter(metricHeatmapRequestsTotal,
			"Heat-map explorations served by /v1/heatmap."),
		heatBuffers: reg.Gauge(metricHeatmapLastBuffersEntries,
			"Per-buffer heat rows in the last /v1/heatmap best-model entry."),
		heatHot: reg.Gauge(metricHeatmapLastHotEntries,
			"Buffers classified hot in the last /v1/heatmap best-model entry."),
	}

	reg.GaugeFunc("igpucomm_breaker_state",
		"Characterization circuit breaker state (0 closed, 1 half-open, 2 open).",
		br.stateValue)
	reg.CounterVecFunc("igpucomm_faults_injected_total",
		"Faults injected by the fault-injection layer, by point.", "point",
		func() map[string]float64 {
			counts := faults.Injected()
			out := make(map[string]float64, len(counts))
			for point, n := range counts {
				out[point] = float64(n)
			}
			return out
		})
	reg.CounterFunc("igpucomm_engine_cache_corrupt_entries_total",
		"Persisted cache entries quarantined at warm start.",
		func() float64 { return float64(eng.Stats().CacheCorruptEntries) })

	reg.InfoGauge("igpucomm_build_info",
		"Build identity of the running advisord binary.", info.Labels())
	reg.GaugeFunc("igpucomm_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return clock.Since(start).Seconds() })

	reg.CounterFunc("igpucomm_engine_requests_total",
		"Advisory requests answered by the engine.",
		func() float64 { return float64(eng.Stats().Requests) })
	reg.CounterFunc("igpucomm_engine_batches_total",
		"Advisory batches answered by the engine.",
		func() float64 { return float64(eng.Stats().Batches) })
	reg.GaugeFunc("igpucomm_engine_pool_workers",
		"Configured simulation-parallelism bound.",
		func() float64 { return float64(eng.Workers()) })
	reg.GaugeFunc("igpucomm_engine_pool_in_use",
		"Simulation worker slots held right now.",
		func() float64 { return float64(eng.PoolInUse()) })
	reg.GaugeFunc("igpucomm_engine_pool_utilization",
		"Fraction of the simulation pool in use.",
		func() float64 {
			if eng.Workers() == 0 {
				return 0
			}
			return float64(eng.PoolInUse()) / float64(eng.Workers())
		})

	registerCacheMetrics(reg, "char", "characterization",
		func() engine.MemoStats { return eng.Stats().Characterizations })
	registerCacheMetrics(reg, "mb1", "MB1",
		func() engine.MemoStats { return eng.Stats().MB1 })
	registerCacheMetrics(reg, "advice", "advice",
		func() engine.MemoStats { return eng.Stats().Advice })

	if fl != nil {
		reg.GaugeFunc(metricFleetRingSize,
			"Member shards in this replica's consistent-hash ring.",
			func() float64 { return float64(fl.Stats().Shards) })
		reg.CounterFunc(metricFleetReroutesTotal,
			"Advisory requests served for keys owned by another shard (client fallback traffic received).",
			func() float64 { return float64(fl.Stats().ReroutesReceived) })
		reg.CounterVecFunc(metricFleetHandoffEntriesTotal,
			"Warm-handoff cache entries moved, by direction (exported to peers / imported from peers).", "direction",
			func() map[string]float64 {
				st := fl.Stats()
				return map[string]float64{
					"exported": float64(st.HandoffExported),
					"imported": float64(st.HandoffImported),
				}
			})
		reg.GaugeFunc(metricFleetDrainingState,
			"Whether this shard is draining (1) or serving (0).",
			func() float64 {
				if fl.Draining() {
					return 1
				}
				return 0
			})
	}
	return m
}

// registerCacheMetrics exports one memo cache's counters under
// igpucomm_engine_<cache>_cache_*.
func registerCacheMetrics(reg *telemetry.Registry, cache, what string, stats func() engine.MemoStats) {
	prefix := "igpucomm_engine_" + cache + "_cache_"
	counters := []struct {
		name string
		help string
		get  func(engine.MemoStats) float64
	}{
		{"hits_total", "requests served from the cache", func(s engine.MemoStats) float64 { return float64(s.Hits) }},
		{"misses_total", "requests that found no live entry", func(s engine.MemoStats) float64 { return float64(s.Misses) }},
		{"shared_total", "misses that piggybacked on an in-flight execution (singleflight)", func(s engine.MemoStats) float64 { return float64(s.Shared) }},
		{"executions_total", "compute functions actually run", func(s engine.MemoStats) float64 { return float64(s.Executions) }},
		{"evictions_total", "LRU capacity evictions", func(s engine.MemoStats) float64 { return float64(s.Evictions) }},
		{"expirations_total", "entries dropped because their TTL lapsed", func(s engine.MemoStats) float64 { return float64(s.Expirations) }},
	}
	for _, c := range counters {
		c := c
		//igpulint:ignore metricname per-cache family: constant prefix ("char"/"mb1"/"advice") + constant table entries, format-checked by TestMetricsRegisterCacheFamilies
		reg.CounterFunc(prefix+c.name,
			fmt.Sprintf("%s cache: %s.", what, c.help),
			func() float64 { return c.get(stats()) })
	}
	//igpulint:ignore metricname per-cache family: constant prefix + constant suffix, see TestMetricsRegisterCacheFamilies
	reg.GaugeFunc(prefix+"entries",
		fmt.Sprintf("%s cache: live cached values.", what),
		func() float64 { return float64(stats().Entries) })
	//igpulint:ignore metricname per-cache family: constant prefix + constant suffix, see TestMetricsRegisterCacheFamilies
	reg.GaugeFunc(prefix+"in_flight",
		fmt.Sprintf("%s cache: executions running right now.", what),
		func() float64 { return float64(stats().InFlight) })
}
