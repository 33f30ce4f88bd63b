// Package engine is the repo's parallel execution and advisory engine: a
// bounded worker pool that fans device characterization and model
// exploration out across cloned platforms, and LRU+TTL memo caches (with
// singleflight deduplication) for the two pure functions of the paper's
// flow — the application-independent device characterization and the
// profile-and-decide recommendation on top of it (plus MB1 alone, for
// calibration) — the machinery that turns the paper's one-shot tuning flow
// (Fig 2) into something that can serve sustained advisory traffic. One
// Advise call answers one question on a Device whose content-hash cache key
// was derived once, when the Device was built: it serves repeats from the
// advice memo, and characterizes (from the characterization memo) only on
// an advice miss.
//
// Correctness contract: the engine runs the framework's plans and only swaps
// the executor. Characterization is microbench.Characterize, exploration
// framework.ExploreOn and profiling framework.AdviseOn, each with onClones
// as its microbench.Runner instead of microbench.Serial. onClones gives
// every job a private platform from a per-config pool (each job resets it
// to fresh-equivalent state), so the outputs are byte-identical to
// framework.Characterize, framework.Explore and framework.AdviseWorkload;
// the golden equivalence tests check this for every device x app x model
// combination.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"igpucomm/internal/apps/catalog"
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
	// TTL expires every memo cache's entries this long after insertion
	// (0: never). Characterizations and recommendations are pure functions
	// of their inputs, so the TTL exists for operational hygiene —
	// bounding how long a service trusts any one simulation — not for
	// correctness.
	TTL time.Duration
	// Clock is the time source for TTL bookkeeping (nil: simnet.Real()).
	// The DST harness injects a virtual clock here.
	Clock simnet.Clock
	// CacheDir, when non-empty, is where each characterization entering
	// the memo (computed, or by CachePut) is stored once, and what
	// LoadCache warm-starts from.
	CacheDir string
}

// Engine executes characterizations, explorations and advisory requests with
// bounded parallelism and memoization. Safe for concurrent use.
type Engine struct {
	workers int
	sem     sem
	pool    *socPool
	chars   *memo[framework.Characterization]
	mb1s    *memo[microbench.MB1Result]
	advice  *memo[framework.Recommendation]

	cacheDir     string
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
	return &Engine{
		workers: o.Workers,
		sem:     make(sem, o.Workers),
		pool:    newSocPool(o.Workers),
		chars:   newMemo[framework.Characterization](o.CacheEntries, o.TTL, o.Clock.Now),
		mb1s:    newMemo[microbench.MB1Result](o.CacheEntries, o.TTL, o.Clock.Now),
		advice:  newMemo[framework.Recommendation](o.CacheEntries, o.TTL, o.Clock.Now),

		cacheDir: o.CacheDir,
	}
}

// Workers returns the configured simulation-parallelism bound.
func (e *Engine) Workers() int { return e.workers }

// PoolInUse returns how many simulation slots are held right now — the
// numerator of the pool-utilization gauge advisord exports.
func (e *Engine) PoolInUse() int { return len(e.sem) }

// Stats is the engine's counter snapshot (served by advisord's /statusz).
type Stats struct {
	Workers int `json:"workers"`
	// Requests counts Advise calls, hit or miss; Advice.Executions counts
	// the profiling runs among them.
	Requests          uint64    `json:"requests"`
	Batches           uint64    `json:"batches"`
	Characterizations MemoStats `json:"characterizations"`
	MB1               MemoStats `json:"mb1"`
	Advice            MemoStats `json:"advice"`
	// CacheCorruptEntries counts persisted cache entries quarantined at
	// warm start (checksum mismatch or undecodable payload).
	CacheCorruptEntries uint64 `json:"cache_corrupt_entries"`
}

// Stats snapshots the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Workers:             e.workers,
		Requests:            e.requests.Load(),
		Batches:             e.batches.Load(),
		Characterizations:   e.chars.snapshot(),
		MB1:                 e.mb1s.snapshot(),
		Advice:              e.advice.snapshot(),
		CacheCorruptEntries: e.cacheCorrupt.Load(),
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
// under the same capacity and TTL rules as a computed one, and is stored in
// the cache directory unless the memo already held the key.
func (e *Engine) CachePut(key string, char framework.Characterization) {
	if key == "" {
		return
	}
	if e.chars.put(key, char) {
		e.store(key, char)
	}
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
	return e.characterizeKeyed(ctx, key, cfg, p)
}

// characterizeKeyed is Characterize under an already derived cache key, in
// its own engine.characterize span so the memo's cache= outcome lands there.
func (e *Engine) characterizeKeyed(ctx context.Context, key string, cfg soc.Config, p microbench.Params) (framework.Characterization, error) {
	ctx, span := telemetry.Start(ctx, "engine.characterize",
		telemetry.String("device", cfg.Name))
	defer span.End()
	return e.chars.do(ctx, key, func() (framework.Characterization, error) {
		char, err := e.characterize(ctx, cfg, p)
		if err == nil {
			e.store(key, char)
		}
		return char, err
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

// explore runs framework.ExploreOn on pooled clones — with heat recording
// bracketing each job when heat is set — behind the engine.explore fault
// point.
func (e *Engine) explore(ctx context.Context, cfg soc.Config, w comm.Workload, models []comm.Model, heat bool) (framework.Exploration, error) {
	spanName, run := "engine.explore", e.onClones(cfg)
	if heat {
		spanName, run = "engine.explore-heat", withHeat(run)
	}
	ctx, span := telemetry.Start(ctx, spanName,
		telemetry.String("device", cfg.Name), telemetry.String("workload", w.Name))
	defer span.End()
	if err := faults.Fire(faultExplore); err != nil {
		return framework.Exploration{}, fmt.Errorf("engine: %w", err)
	}
	exp, err := framework.ExploreOn(ctx, cfg.Name, w, models, run)
	if err != nil {
		return framework.Exploration{}, fmt.Errorf("engine: %w", err)
	}
	return exp, nil
}

// withHeat wraps run so every job runs with heat profiling enabled on the
// platform it is lent, and disabled again before the platform goes back to
// the pool.
func withHeat(run microbench.Runner) microbench.Runner {
	return func(ctx context.Context, jobs []microbench.Job) error {
		heated := make([]microbench.Job, len(jobs))
		for i, job := range jobs {
			heated[i] = func(ctx context.Context, s *soc.SoC) error {
				s.EnableHeat()
				defer s.DisableHeat()
				return job(ctx, s)
			}
		}
		return run(ctx, heated)
	}
}

// Request is one advisory question: which communication model should the
// named catalog application, at the given scale, use on this device,
// given it currently uses Current? Naming the workload (rather than
// carrying its closures) and resolving the device up front (NewDevice)
// give the question an identity the advice memo can key on without
// deriving anything.
type Request struct {
	Device  Device
	App     string
	Scale   catalog.Scale
	Current string
}

// ErrCharacterization marks an Advise error that came from the device
// characterization the question needed (an error, a recovered panic or an
// ended context), as opposed to profiling or resolving the workload. Test
// for it with errors.Is; advisord's circuit breaker counts only these.
var ErrCharacterization = errors.New("characterization failed")

// Advise answers a request from the advice memo when possible, keyed by
// the cache key its Device carries: a hit returns without deriving
// anything or touching the characterization memo. A miss resolves the
// workload with catalog.ByName, gets the device characterization from the
// characterization memo (a nested engine.characterize span) and runs
// framework.AdviseOn on pooled clones, so each profiling run gets its own
// platform under the engine's worker bound. Concurrent misses for one
// question share that run, and errors are not cached.
func (e *Engine) Advise(ctx context.Context, req Request) (framework.Recommendation, error) {
	e.requests.Add(1)
	d := req.Device
	key, err := d.cacheKey()
	if err != nil {
		return framework.Recommendation{}, err
	}
	ctx, span := telemetry.Start(ctx, "engine.advise",
		telemetry.String("device", d.cfg.Name),
		telemetry.String("workload", req.App),
		telemetry.String("current", req.Current))
	defer span.End()
	question := key + "|" + req.App + "|" + strconv.Itoa(int(req.Scale)) + "|" + req.Current
	return e.advice.do(ctx, question, func() (framework.Recommendation, error) {
		w, err := catalog.ByName(req.App, req.Scale)
		if err != nil {
			return framework.Recommendation{}, fmt.Errorf("engine: %w", err)
		}
		char, err := e.characterizeKeyed(ctx, key, d.cfg, d.p)
		if err != nil {
			return framework.Recommendation{}, fmt.Errorf("%w: %w", ErrCharacterization, err)
		}
		rec, _, _, err := framework.AdviseOn(ctx, char, w, req.Current, e.onClones(d.cfg))
		return rec, err
	})
}

// NoteBatch counts one advisory batch: advisord calls it once per
// /v1/advise body, whose questions it answers individually through Advise.
func (e *Engine) NoteBatch() { e.batches.Add(1) }
