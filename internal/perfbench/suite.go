package perfbench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"

	"igpucomm/internal/advisord"
	"igpucomm/internal/advisord/client"
	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/engine"
	"igpucomm/internal/fleet"
	"igpucomm/internal/framework"
	"igpucomm/internal/microbench"
	"igpucomm/internal/soc"
)

// SuiteOptions selects the scale and parallelism of the declared suite.
type SuiteOptions struct {
	// Quick runs the reduced micro-benchmark params and workload scale
	// (the same reduction -quick applies everywhere else in the repo).
	Quick bool
	// Workers bounds the engine's simulation parallelism (<=0: GOMAXPROCS).
	Workers int
}

func (o SuiteOptions) params() microbench.Params {
	if o.Quick {
		return microbench.TestParams()
	}
	return microbench.DefaultParams()
}

func (o SuiteOptions) scale() catalog.Scale {
	if o.Quick {
		return catalog.Quick
	}
	return catalog.Full
}

// combo is one device x app sweep point.
type combo struct {
	cfg soc.Config
	w   comm.Workload
}

// sweepCombos builds the 9 device x app points; with the extended model set
// (comm.AllModels, 5 models) a sweep over them is the repo's canonical
// 45-point workload.
func sweepCombos(scale catalog.Scale) ([]combo, error) {
	var combos []combo
	for _, cfg := range devices.All() {
		for _, app := range catalog.Names() {
			w, err := catalog.ByName(app, scale)
			if err != nil {
				return nil, err
			}
			combos = append(combos, combo{cfg: cfg, w: w})
		}
	}
	return combos, nil
}

// DefaultSuite declares the scenarios perfgate runs: the serial-vs-engine
// 45-combo sweep, the memo cache cold and warm, the three
// device-characterization micro-benchmark phases, advisord request latency
// over a real HTTP round trip, and checked-mode overhead against the plain
// model run it wraps.
func DefaultSuite(opt SuiteOptions) ([]Scenario, error) {
	params := opt.params()
	combos, err := sweepCombos(opt.scale())
	if err != nil {
		return nil, fmt.Errorf("perfbench: %w", err)
	}
	tx2, err := devices.ByName(devices.TX2Name)
	if err != nil {
		return nil, fmt.Errorf("perfbench: %w", err)
	}
	shwfs, err := catalog.ByName("shwfs", opt.scale())
	if err != nil {
		return nil, fmt.Errorf("perfbench: %w", err)
	}

	scenarios := []Scenario{
		{
			Name:      "sweep/serial",
			Component: "framework",
			Doc:       "serial 45-point device x app x model exploration (the seed path)",
			Prepare: func(context.Context) (func(context.Context) error, func(), error) {
				return func(context.Context) error {
					for _, c := range combos {
						if _, err := framework.Explore(soc.New(c.cfg), c.w, comm.AllModels()); err != nil {
							return err
						}
					}
					return nil
				}, nil, nil
			},
		},
		{
			Name:      "sweep/engine",
			Component: "engine",
			Doc:       "engine 45-point exploration on a fresh engine per iteration, models fanned out across clones",
			Prepare: func(context.Context) (func(context.Context) error, func(), error) {
				return func(ctx context.Context) error {
					eng := engine.New(engine.Options{Workers: opt.Workers})
					for _, c := range combos {
						if _, err := eng.Explore(ctx, c.cfg, c.w, comm.AllModels()); err != nil {
							return err
						}
					}
					return nil
				}, nil, nil
			},
		},
		{
			Name:      "sweep/engine-batch",
			Component: "engine",
			Doc:       "steady-state engine sweep: platform pool and compiled-kernel caches primed, iterations replay batch kernels",
			Prepare: func(ctx context.Context) (func(context.Context) error, func(), error) {
				eng := engine.New(engine.Options{Workers: opt.Workers})
				// One priming sweep: fills the platform pool and, through
				// it, each config's shared compiled-kernel cache, so the
				// measured iterations are the advisory service's steady
				// state.
				for _, c := range combos {
					if _, err := eng.Explore(ctx, c.cfg, c.w, comm.AllModels()); err != nil {
						return nil, nil, err
					}
				}
				return func(ctx context.Context) error {
					for _, c := range combos {
						if _, err := eng.Explore(ctx, c.cfg, c.w, comm.AllModels()); err != nil {
							return err
						}
					}
					return nil
				}, nil, nil
			},
		},
		{
			Name:      "sweep/engine-heatmap",
			Component: "engine",
			Doc:       "steady-state engine sweep with per-buffer heat recording enabled — the cost of the observability overlay",
			Prepare: func(ctx context.Context) (func(context.Context) error, func(), error) {
				eng := engine.New(engine.Options{Workers: opt.Workers})
				// Prime heat-enabled so the pooled platforms already carry
				// their accumulators and the measured iterations see the
				// steady-state record path, not allocation.
				for _, c := range combos {
					if _, err := eng.ExploreHeat(ctx, c.cfg, c.w, comm.AllModels()); err != nil {
						return nil, nil, err
					}
				}
				return func(ctx context.Context) error {
					for _, c := range combos {
						if _, err := eng.ExploreHeat(ctx, c.cfg, c.w, comm.AllModels()); err != nil {
							return err
						}
					}
					return nil
				}, nil, nil
			},
		},
		{
			Name:      "memo/cold",
			Component: "engine",
			Doc:       "characterize all devices on a cold memo cache (fresh engine per iteration)",
			Prepare: func(context.Context) (func(context.Context) error, func(), error) {
				return func(ctx context.Context) error {
					eng := engine.New(engine.Options{Workers: opt.Workers})
					for _, cfg := range devices.All() {
						if _, err := eng.Characterize(ctx, cfg, params); err != nil {
							return err
						}
					}
					return nil
				}, nil, nil
			},
		},
		{
			Name:      "memo/warm",
			Component: "engine",
			Doc:       "characterize all devices against a primed memo cache (pure hits)",
			Prepare: func(ctx context.Context) (func(context.Context) error, func(), error) {
				eng := engine.New(engine.Options{Workers: opt.Workers})
				for _, cfg := range devices.All() {
					if _, err := eng.Characterize(ctx, cfg, params); err != nil {
						return nil, nil, err
					}
				}
				return func(ctx context.Context) error {
					for _, cfg := range devices.All() {
						if _, err := eng.Characterize(ctx, cfg, params); err != nil {
							return err
						}
					}
					return nil
				}, nil, nil
			},
		},
		{
			Name:      "microbench/mb1",
			Component: "microbench",
			Doc:       "MB1 cache-throughput phase on the TX2 catalog entry",
			Prepare: func(context.Context) (func(context.Context) error, func(), error) {
				return func(ctx context.Context) error {
					_, err := microbench.MB1(ctx, tx2.Name, params, microbench.Serial(soc.New(tx2)))
					return err
				}, nil, nil
			},
		},
		{
			Name:      "microbench/mb2",
			Component: "microbench",
			Doc:       "MB2 density-sweep phase on the TX2 catalog entry",
			Prepare: func(ctx context.Context) (func(context.Context) error, func(), error) {
				mb1, err := microbench.MB1(ctx, tx2.Name, params, microbench.Serial(soc.New(tx2)))
				if err != nil {
					return nil, nil, err
				}
				peak := mb1.PeakThroughput()
				return func(ctx context.Context) error {
					_, err := microbench.MB2(ctx, tx2.Name, tx2.IOCoherent, params, peak, microbench.Serial(soc.New(tx2)))
					return err
				}, nil, nil
			},
		},
		{
			Name:      "mb2/compiled-run",
			Component: "microbench",
			Doc:       "MB2 density sweep on one persistent platform (compiled-kernel replay steady state)",
			Prepare: func(ctx context.Context) (func(context.Context) error, func(), error) {
				run := microbench.Serial(soc.New(tx2))
				mb1, err := microbench.MB1(ctx, tx2.Name, params, run)
				if err != nil {
					return nil, nil, err
				}
				peak := mb1.PeakThroughput()
				if _, err := microbench.MB2(ctx, tx2.Name, tx2.IOCoherent, params, peak, run); err != nil {
					return nil, nil, err
				}
				return func(ctx context.Context) error {
					_, err := microbench.MB2(ctx, tx2.Name, tx2.IOCoherent, params, peak, run)
					return err
				}, nil, nil
			},
		},
		{
			Name:      "microbench/mb3",
			Component: "microbench",
			Doc:       "MB3 overlap phase on the TX2 catalog entry",
			Prepare: func(context.Context) (func(context.Context) error, func(), error) {
				return func(ctx context.Context) error {
					_, err := microbench.MB3(ctx, tx2.Name, params, microbench.Serial(soc.New(tx2)))
					return err
				}, nil, nil
			},
		},
		{
			Name:      "comm/run",
			Component: "comm",
			Doc:       "plain ZC model run of shwfs on TX2 (checked-mode baseline)",
			Prepare: func(context.Context) (func(context.Context) error, func(), error) {
				return func(context.Context) error {
					_, err := comm.ZC{}.Run(soc.New(tx2), shwfs)
					return err
				}, nil, nil
			},
		},
		{
			Name:      "comm/checked",
			Component: "comm",
			Doc:       "same run under CheckedRun (hazard verification on the hot path)",
			Prepare: func(context.Context) (func(context.Context) error, func(), error) {
				return func(ctx context.Context) error {
					_, err := comm.CheckedRun(ctx, soc.New(tx2), shwfs, comm.ZC{})
					return err
				}, nil, nil
			},
		},
		advisordScenario(opt),
		fleetScenario(opt),
	}
	return scenarios, nil
}

// advisordScenario measures one warm /v1/advise batch over a real HTTP
// round trip: JSON encode, TCP loopback, the observability middleware, the
// engine batch (all characterizations cached after warmup), JSON decode.
func advisordScenario(opt SuiteOptions) Scenario {
	return Scenario{
		Name:      "advisord/advise",
		Component: "advisord",
		Doc:       "warm 3-device /v1/advise batch over loopback HTTP (httptest)",
		Prepare: func(context.Context) (func(context.Context) error, func(), error) {
			eng := engine.New(engine.Options{Workers: opt.Workers})
			logger := slog.New(slog.NewTextHandler(io.Discard, nil))
			srv := advisord.New(eng, advisord.Options{Params: opt.params(), Scale: opt.scale(), Logger: logger})
			ts := httptest.NewServer(srv.Handler())

			var reqs []map[string]string
			for _, cfg := range devices.All() {
				reqs = append(reqs, map[string]string{
					"device": cfg.Name, "app": "shwfs", "current": "sc",
				})
			}
			body, err := json.Marshal(map[string]interface{}{"requests": reqs})
			if err != nil {
				ts.Close()
				return nil, nil, err
			}

			run := func(ctx context.Context) error {
				req, err := http.NewRequestWithContext(ctx, http.MethodPost,
					ts.URL+"/v1/advise", bytes.NewReader(body))
				if err != nil {
					return err
				}
				req.Header.Set("Content-Type", "application/json")
				resp, err := ts.Client().Do(req)
				if err != nil {
					return err
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					return fmt.Errorf("advise status %d", resp.StatusCode)
				}
				var out struct {
					Results []struct {
						Error string `json:"error"`
					} `json:"results"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					return err
				}
				for _, r := range out.Results {
					if r.Error != "" {
						return fmt.Errorf("advise result error: %s", r.Error)
					}
				}
				return nil
			}
			return run, ts.Close, nil
		},
	}
}

// fleetScenario measures the same warm 3-device advise batch routed through
// a 3-shard httptest fleet by the shard-aware client: per-question device
// hashing on the ring, split-by-owner grouping, and up to three loopback
// round trips instead of advisord/advise's one. The routed-advise-2x relation bounds
// that routing tax.
func fleetScenario(opt SuiteOptions) Scenario {
	return Scenario{
		Name:      "fleet/routed-advise",
		Component: "fleet",
		Doc:       "warm 3-device advise batch routed across a 3-shard httptest fleet",
		Prepare: func(ctx context.Context) (func(context.Context) error, func(), error) {
			logger := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))
			ids := []string{"bench-a", "bench-b", "bench-c"}
			var servers []*httptest.Server
			var states []*fleet.State
			closeAll := func() {
				for _, ts := range servers {
					ts.Close()
				}
			}
			for _, id := range ids {
				st, err := fleet.NewState(id, []fleet.Shard{{ID: id, URL: "http://placeholder.invalid"}}, 0)
				if err != nil {
					closeAll()
					return nil, nil, err
				}
				eng := engine.New(engine.Options{Workers: opt.Workers})
				srv := advisord.New(eng, advisord.Options{
					Params: opt.params(), Scale: opt.scale(), Logger: logger, Fleet: st,
				})
				servers = append(servers, httptest.NewServer(srv.Handler()))
				states = append(states, st)
			}
			members := make([]fleet.Shard, len(ids))
			for i, id := range ids {
				members[i] = fleet.Shard{ID: id, URL: servers[i].URL}
			}
			for _, st := range states {
				if err := st.SetShards(members); err != nil {
					closeAll()
					return nil, nil, err
				}
			}
			rt, err := fleet.NewRouter(fleet.RouterOptions{Shards: members})
			if err != nil {
				closeAll()
				return nil, nil, err
			}
			cl := client.New(client.Options{Fleet: rt})

			var body advisord.AdviseBody
			for _, cfg := range devices.All() {
				body.Requests = append(body.Requests,
					advisord.AdviseRequest{Device: cfg.Name, App: "shwfs", Current: "sc"})
			}
			run := func(ctx context.Context) error {
				resp, err := cl.Advise(ctx, body)
				if err != nil {
					return err
				}
				for _, r := range resp.Results {
					if r.Error != "" {
						return fmt.Errorf("advise result error: %s", r.Error)
					}
				}
				return nil
			}
			// One warm pass so every shard characterizes its owned devices
			// before the clock starts, mirroring advisord/advise's warmup.
			if err := run(ctx); err != nil {
				closeAll()
				return nil, nil, err
			}
			return run, closeAll, nil
		},
	}
}
