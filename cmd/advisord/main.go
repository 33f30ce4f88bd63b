// Command advisord serves the paper's tuning flow as an HTTP service: batch
// advisory requests, cached device characterizations, health, status and
// Prometheus metrics. Characterizations and recommendations are memoized in
// the execution engine's LRU caches (with singleflight deduplication), so
// concurrent requests for the same device share one simulation and a
// repeated question is answered without characterizing or profiling.
//
// Endpoints:
//
//	POST /v1/advise        {"requests":[{"device":"jetson-tx2","app":"shwfs","current":"sc"}]}
//	GET  /v1/characterize?device=jetson-agx-xavier
//	GET  /healthz
//	GET  /statusz
//	GET  /metrics          Prometheus text exposition
//
// The /v1 endpoints run behind a resilience layer: a per-request deadline
// (-request-timeout), a bounded admission queue that sheds overload with
// 429 + Retry-After (-max-concurrent/-max-queue), and a circuit breaker
// around device characterization (-breaker-threshold/-breaker-cooldown).
// When the engine cannot answer, /v1/advise falls back to a threshold-only
// heuristic and marks the response "degraded": true.
//
// Every response carries an X-Trace-Id header (generated, or echoed from the
// request) that also appears in the structured request log. With -debug-addr
// set, net/http/pprof is served on a separate listener. SIGINT/SIGTERM drain
// in-flight requests for up to -drain-timeout before the process exits.
// Invalid flag combinations are rejected at startup with a usage error
// (exit 2) before any listener binds.
//
// For chaos testing, -faults (or the FAULTS environment variable) activates
// the deterministic fault-injection layer; see internal/faults for the spec
// grammar.
//
// With -shard-id and -peers, the replica joins a sharded fleet: advisory
// questions route to the shard owning the device they name on a
// consistent-hash ring, /v1/fleet/topology and /v1/cache/export join the main
// surface, and at boot the shard pulls its owned cache entries from its peers
// (warm handoff, best-effort). -admin-addr serves the operator API advisorctl
// speaks — status, ring shares, drain, rebalance — on its own listener. See
// docs/FLEET.md for the runbook.
//
// Usage:
//
//	advisord -addr :8025
//	advisord -addr :8025 -quick -workers 8 -ttl 1h -cache-dir /var/cache/advisord
//	advisord -addr :8025 -debug-addr 127.0.0.1:8026 -drain-timeout 30s
//	advisord -addr :8025 -faults "engine.characterize:error:p=0.2" -faults-seed 7
//	advisord -addr :8025 -admin-addr :8125 -shard-id a \
//	    -peers "a=http://h1:8025,b=http://h2:8025,c=http://h3:8025"
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"igpucomm/internal/advisord"
	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/buildinfo"
	"igpucomm/internal/engine"
	"igpucomm/internal/faults"
	"igpucomm/internal/fleet"
	"igpucomm/internal/microbench"
)

func main() {
	cfg, err := parseConfig(os.Args[1:])
	if err != nil {
		// flag.Parse already printed its own message for parse failures;
		// validation failures still need theirs.
		if errors.Is(err, flag.ErrHelp) || errors.Is(err, errFlagParse) {
			os.Exit(2)
		}
		usageError(err)
	}

	if cfg.version {
		fmt.Println(buildinfo.Get())
		return
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	slog.SetDefault(logger)

	if plan, err := cfg.faultPlan(); err != nil {
		usageError(err)
	} else if plan != nil {
		if err := faults.Activate(plan); err != nil {
			usageError(err)
		}
		logger.Warn("fault injection active", "spec", cfg.faultSpec, "seed", cfg.faultSeed)
	}

	params := microbench.DefaultParams()
	scale := catalog.Full
	if cfg.quick {
		params = microbench.TestParams()
		scale = catalog.Quick
	}

	eng := engine.New(engine.Options{
		Workers:      cfg.workers,
		CacheEntries: cfg.cacheEntries,
		TTL:          cfg.ttl,
		CacheDir:     cfg.cacheDir,
	})
	if cfg.cacheDir != "" {
		n, err := eng.LoadCache()
		if err != nil {
			logger.Error("warm start failed", "dir", cfg.cacheDir, "err", err)
			os.Exit(1)
		}
		logger.Info("warm start", "characterizations", n,
			"quarantined", eng.Stats().CacheCorruptEntries, "dir", cfg.cacheDir)
	}

	fleetState, err := cfg.fleetState()
	if err != nil {
		usageError(err)
	}
	if fleetState != nil {
		logger.Info("fleet mode", "shard", fleetState.Self(),
			"members", len(fleetState.Ring().Shards()), "vnodes", fleetState.Ring().VNodes())
		warmHandoff(fleetState, eng, logger)
	}

	srv := advisord.New(eng, advisord.Options{
		Params:           params,
		Scale:            scale,
		Logger:           logger,
		RequestTimeout:   cfg.requestTimeout,
		MaxConcurrent:    cfg.maxConcurrent,
		MaxQueue:         cfg.maxQueue,
		BreakerThreshold: cfg.breakerThreshold,
		BreakerCooldown:  cfg.breakerCooldown,
		Fleet:            fleetState,
	})
	httpSrv := &http.Server{
		Addr:              cfg.addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	sideSrvs := []*http.Server{
		serveSide(cfg.adminAddr, "fleet admin API", srv.AdminHandler(), logger),
		serveSide(cfg.debugAddr, "pprof", debugMux(), logger),
	}

	// Serve until SIGINT/SIGTERM, then drain: Shutdown stops accepting new
	// connections and waits for in-flight advise requests to complete, up
	// to the drain timeout.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", cfg.addr,
			"workers", eng.Workers(), "quick", cfg.quick, "build", buildinfo.Get().String())
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		logger.Error("serve", "err", err)
		os.Exit(1)
	case <-ctx.Done():
		stop()
		logger.Info("shutting down, draining in-flight requests", "timeout", cfg.drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Error("drain incomplete", "err", err)
			os.Exit(1)
		}
		for _, side := range sideSrvs {
			if side != nil {
				_ = side.Shutdown(shutdownCtx)
			}
		}
		logger.Info("shutdown complete")
	}
}

// serveSide starts a listener beside the main one (the fleet admin API,
// pprof) and returns it for shutdown; nil when addr is empty.
func serveSide(addr, what string, h http.Handler, logger *slog.Logger) *http.Server {
	if addr == "" {
		return nil
	}
	side := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		logger.Info(what+" listening", "addr", addr)
		if err := side.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error(what+" server", "err", err)
		}
	}()
	return side
}

// warmHandoff pulls this shard's owned cache entries from its peers at boot —
// the joining half of the fleet's warm-handoff protocol. Best-effort: peers
// that are down or not yet serving just mean a colder start.
func warmHandoff(st *fleet.State, eng *engine.Engine, logger *slog.Logger) {
	if len(st.Peers()) == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := fleet.Pull(ctx, st, nil, eng.CachePut)
	if err != nil {
		logger.Warn("warm handoff failed", "err", err)
		return
	}
	logger.Info("warm handoff", "pulled", rep.Pulled, "peers", rep.Peers,
		"peer_errors", len(rep.PeerErrors))
	for _, pe := range rep.PeerErrors {
		logger.Warn("warm handoff peer error", "err", pe)
	}
}

// debugMux builds the pprof handler set without relying on the global
// http.DefaultServeMux (which the main listener intentionally never serves).
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
