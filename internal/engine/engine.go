// Package engine is the repo's parallel execution and advisory engine: a
// bounded worker pool that fans device characterization and model
// exploration out across cloned platforms, an LRU+TTL memo cache (with
// singleflight deduplication) for the expensive application-independent
// characterizations, and the profile-and-decide step on top — the machinery
// that turns the paper's one-shot tuning flow (Fig 2) into something that
// can serve sustained advisory traffic.
//
// Correctness contract: the engine runs the same plans as the serial paths
// and only swaps the executor. Characterization is microbench.Characterize
// with onClones as its Runner instead of microbench.Serial, and exploration
// assembles its candidates with framework.NewExploration. onClones gives
// every job a private platform from a per-config pool (each job resets it
// to fresh-equivalent state), so the outputs are byte-identical to
// framework.Characterize and framework.Explore; the golden equivalence tests
// check this for every device x app x model combination.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"igpucomm/internal/comm"
	"igpucomm/internal/faults"
	"igpucomm/internal/framework"
	"igpucomm/internal/microbench"
	"igpucomm/internal/simnet"
	"igpucomm/internal/soc"
	"igpucomm/internal/telemetry"
)

// Fault points the engine exposes to the injection layer (inert unless a
// plan is activated; see internal/faults).
var (
	faultCharacterize = faults.Register("engine.characterize",
		"cold characterization run (before the micro-benchmark fan-out)",
		faults.CanError|faults.CanLatency|faults.CanPanic)
	faultExplore = faults.Register("engine.explore",
		"model exploration fan-out", faults.CanError|faults.CanLatency|faults.CanPanic)
	faultCacheStore = faults.Register("engine.cache.store",
		"cache persistence write (per entry)", faults.CanError|faults.CanLatency|faults.CanPanic)
	faultCacheLoad = faults.Register("engine.cache.load",
		"cache warm-start read (per-entry bytes)",
		faults.CanError|faults.CanLatency|faults.CanCorrupt|faults.CanTruncate|faults.CanPanic)
)

// Options configures an Engine.
type Options struct {
	// Workers bounds the number of concurrently executing simulation
	// tasks. <=0 means GOMAXPROCS.
	Workers int
	// CacheEntries is the LRU capacity of each memo cache (<=0: 64).
	CacheEntries int
	// TTL expires cached characterizations this long after insertion
	// (0: never). Characterizations are pure functions of (config,
	// params), so the TTL exists for operational hygiene — bounding how
	// long a service trusts any one simulation — not for correctness.
	TTL time.Duration
	// Clock is the time source for TTL bookkeeping (nil: simnet.Real()).
	// The DST harness injects a virtual clock here.
	Clock simnet.Clock
	// KeyRole classifies a characterization cache key for per-role
	// accounting (nil: no role tracking). Fleet deployments install the
	// shard's fleet.State.KeyRole here so /statusz reports cache entries
	// and hit rates split into owned vs remote keys. The classifier is
	// called outside the cache lock and must be safe for concurrent use.
	KeyRole func(key string) string
}

// Engine executes characterizations, explorations and advisory requests with
// bounded parallelism and memoization. Safe for concurrent use.
type Engine struct {
	workers int
	sem     sem
	pool    *socPool
	chars   *memo[framework.Characterization]
	mb1s    *memo[microbench.MB1Result]

	requests     atomic.Uint64
	batches      atomic.Uint64
	cacheCorrupt atomic.Uint64
}

// New builds an engine.
func New(o Options) *Engine {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Clock == nil {
		o.Clock = simnet.Real()
	}
	chars := newMemo[framework.Characterization](o.CacheEntries, o.TTL, o.Clock.Now)
	// Only the characterization cache is sharded across a fleet; MB1
	// memoization stays process-local.
	chars.role = o.KeyRole
	return &Engine{
		workers: o.Workers,
		sem:     make(sem, o.Workers),
		pool:    newSocPool(o.Workers),
		chars:   chars,
		mb1s:    newMemo[microbench.MB1Result](o.CacheEntries, o.TTL, o.Clock.Now),
	}
}

// Workers returns the configured simulation-parallelism bound.
func (e *Engine) Workers() int { return e.workers }

// PoolInUse returns how many simulation slots are held right now — the
// numerator of the pool-utilization gauge advisord exports.
func (e *Engine) PoolInUse() int { return len(e.sem) }

// Stats is the engine's counter snapshot (served by advisord's /statusz).
type Stats struct {
	Workers           int       `json:"workers"`
	Requests          uint64    `json:"requests"`
	Batches           uint64    `json:"batches"`
	Characterizations MemoStats `json:"characterizations"`
	MB1               MemoStats `json:"mb1"`
	// CacheCorruptEntries counts persisted cache entries quarantined at
	// warm start (checksum mismatch or undecodable payload).
	CacheCorruptEntries uint64 `json:"cache_corrupt_entries"`
	// CharacterizationsByRole splits the characterization cache's counters
	// by shard role (Options.KeyRole). Absent — keeping the pre-fleet JSON
	// shape — when no classifier is installed.
	CharacterizationsByRole map[string]MemoRoleStats `json:"characterizations_by_role,omitempty"`
}

// Stats snapshots the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Workers:                 e.workers,
		Requests:                e.requests.Load(),
		Batches:                 e.batches.Load(),
		Characterizations:       e.chars.snapshot(),
		MB1:                     e.mb1s.snapshot(),
		CacheCorruptEntries:     e.cacheCorrupt.Load(),
		CharacterizationsByRole: e.chars.snapshotRoles(),
	}
}

// CacheExport returns every live characterization cache entry keyed by cache
// key — the source of a fleet warm-handoff stream. The map is a copy; the
// values are the cached characterizations themselves, which callers must
// treat as read-only.
func (e *Engine) CacheExport() map[string]framework.Characterization {
	return e.chars.dump()
}

// CachePut inserts a characterization under its cache key, as a warm-handoff
// pull (or any other out-of-band warm start) does. The entry joins the LRU
// under the same capacity and TTL rules as a computed one.
func (e *Engine) CachePut(key string, char framework.Characterization) {
	if key == "" {
		return
	}
	e.chars.put(key, char)
}

// Characterize returns the device characterization for (cfg, p), from the
// memo cache when possible. Concurrent calls for the same key share one
// execution; a cold execution fans the micro-benchmark sweep points out
// across cloned platforms under the worker bound.
func (e *Engine) Characterize(ctx context.Context, cfg soc.Config, p microbench.Params) (framework.Characterization, error) {
	key, err := CacheKey(cfg, p)
	if err != nil {
		return framework.Characterization{}, err
	}
	ctx, span := telemetry.Start(ctx, "engine.characterize",
		telemetry.String("device", cfg.Name))
	defer span.End()
	return e.chars.do(ctx, key, func() (framework.Characterization, error) {
		return e.characterize(ctx, cfg, p)
	})
}

// characterize is the cold path: the characterization plan on pooled
// clones.
func (e *Engine) characterize(ctx context.Context, cfg soc.Config, p microbench.Params) (framework.Characterization, error) {
	if err := faults.Fire(faultCharacterize); err != nil {
		return framework.Characterization{}, fmt.Errorf("engine: %w", err)
	}
	res, err := microbench.Characterize(ctx, cfg.Name, cfg.IOCoherent, p, e.onClones(cfg))
	if err != nil {
		return framework.Characterization{}, fmt.Errorf("engine: %w", err)
	}
	return framework.NewCharacterization(res), nil
}

// onClones is the engine's microbench.Runner: it runs a stage's jobs
// concurrently under the worker bound, each on its own pooled platform for
// cfg, and reports the lowest-index error.
func (e *Engine) onClones(cfg soc.Config) microbench.Runner {
	return func(ctx context.Context, jobs []microbench.Job) error {
		return fanOut(ctx, e.sem, len(jobs), func(i int) error {
			s, pk := e.pool.get(cfg)
			err := jobs[i](ctx, s)
			e.pool.put(pk, s, err)
			return err
		})
	}
}

// MB1 returns just the first micro-benchmark's result, memoized under the
// same key scheme. Calibration loops use this: re-measuring a config the
// loop (or a previous fit against the same config) already measured is a
// cache hit.
func (e *Engine) MB1(ctx context.Context, cfg soc.Config, p microbench.Params) (microbench.MB1Result, error) {
	key, err := CacheKey(cfg, p)
	if err != nil {
		return microbench.MB1Result{}, err
	}
	ctx, span := telemetry.Start(ctx, "engine.mb1", telemetry.String("device", cfg.Name))
	defer span.End()
	return e.mb1s.do(ctx, key, func() (microbench.MB1Result, error) {
		res, err := microbench.MB1(ctx, cfg.Name, p, e.onClones(cfg))
		if err != nil {
			return microbench.MB1Result{}, fmt.Errorf("engine: %w", err)
		}
		return res, nil
	})
}

// Explore measures the workload under every given model (comm.Models when
// nil) concurrently, one clone per model, and returns the same ranking the
// serial framework.Explore produces.
func (e *Engine) Explore(ctx context.Context, cfg soc.Config, w comm.Workload, models []comm.Model) (framework.Exploration, error) {
	return e.explore(ctx, cfg, w, models, false)
}

// ExploreHeat is Explore with per-buffer heat profiling enabled for the
// duration of each model run: every candidate's Report carries a BufferHeat
// snapshot of its measured iteration. Heat is disabled again before the
// platform returns to the pool, so pooled platforms stay heat-free for
// ordinary work (the accumulator itself is cached on the SoC, so repeated
// heat sweeps do not reallocate). Timings are byte-identical to Explore's —
// heat recording never perturbs the simulation.
func (e *Engine) ExploreHeat(ctx context.Context, cfg soc.Config, w comm.Workload, models []comm.Model) (framework.Exploration, error) {
	return e.explore(ctx, cfg, w, models, true)
}

// explore is the fan-out behind Explore and ExploreHeat.
func (e *Engine) explore(ctx context.Context, cfg soc.Config, w comm.Workload, models []comm.Model, heat bool) (framework.Exploration, error) {
	if models == nil {
		models = comm.Models()
	}
	if len(models) == 0 {
		return framework.Exploration{}, fmt.Errorf("engine: no models to explore")
	}
	spanName := "engine.explore"
	if heat {
		spanName = "engine.explore-heat"
	}
	ctx, span := telemetry.Start(ctx, spanName,
		telemetry.String("device", cfg.Name), telemetry.String("workload", w.Name))
	defer span.End()
	if err := faults.Fire(faultExplore); err != nil {
		return framework.Exploration{}, fmt.Errorf("engine: %w", err)
	}
	cands := make([]framework.Candidate, len(models))
	jobs := make([]microbench.Job, len(models))
	for i, m := range models {
		jobs[i] = func(ctx context.Context, s *soc.SoC) error {
			attrs := []telemetry.Attr{telemetry.String("model", m.Name())}
			if heat {
				attrs = append(attrs, telemetry.String("heat", "on"))
				s.EnableHeat()
				defer s.DisableHeat() // before onClones pools s again
			}
			_, mspan := telemetry.Start(ctx, "engine.explore.model", attrs...)
			defer mspan.End()
			rep, err := m.Run(s, w)
			if err != nil {
				return fmt.Errorf("engine: explore %s: %w", m.Name(), err)
			}
			cands[i] = framework.Candidate{Model: m.Name(), Total: rep.Total, Report: rep}
			return nil
		}
	}
	if err := e.onClones(cfg)(ctx, jobs); err != nil {
		return framework.Exploration{}, err
	}
	return framework.NewExploration(cfg.Name, w.Name, cands), nil
}

// Request is one advisory question: which communication model should this
// workload use on this platform, given it currently uses Current?
type Request struct {
	Config   soc.Config
	Params   microbench.Params
	Workload comm.Workload
	Current  string
}

// AdviseWith answers a request against a characterization the caller already
// holds (from Characterize): profiling and the Fig-2 decision flow on a
// private clone, under the engine's worker bound. advisord's resilience
// layer calls the two separately so characterization failures (which feed
// the circuit breaker) stay apart from profiling failures (which fall back
// to degraded-mode advice).
func (e *Engine) AdviseWith(ctx context.Context, char framework.Characterization, req Request) (framework.Recommendation, error) {
	e.requests.Add(1)
	ctx, span := telemetry.Start(ctx, "engine.advise",
		telemetry.String("device", req.Config.Name),
		telemetry.String("workload", req.Workload.Name),
		telemetry.String("current", req.Current))
	defer span.End()
	var rec framework.Recommendation
	err := e.onClones(req.Config)(ctx, []microbench.Job{func(ctx context.Context, s *soc.SoC) (err error) {
		rec, err = framework.AdviseWorkload(ctx, char, s, req.Workload, req.Current)
		return err
	}})
	return rec, err
}

// NoteBatch counts one advisory batch: advisord calls it once per
// /v1/advise body, whose requests it answers individually through
// Characterize and AdviseWith.
func (e *Engine) NoteBatch() { e.batches.Add(1) }
