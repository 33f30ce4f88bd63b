# Developer entry points; `make ci` runs every job of
# .github/workflows/ci.yml. The CI gate job also smokes the disabled-fault
# overhead benchmark.

GO ?= go

.PHONY: all build test race declared-full fmt vet lint lint-sarif lint-baseline lint-docs docs-links hazardcheck cover fuzz paperbench bench perfgate perf-smoke trace fleet dst ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The paper-scale (DefaultParams and catalog.Full) tests the race detector
# skips, run here without -race: every kernel declaring an affine stride
# must compile to its warp template plus derived ops and replay exactly
# like its undeclared twin, which writes every warp out (4 M threads per
# MB3 stream); every catalog app's declared Key must be complete (equal
# scopes emit equal programs for every thread, and no param changes a
# program without changing the Key); a primed engine's second and third
# 45-combo sweeps must replay every kernel from the shared kernel caches on
# those declarations, with no compile, no emitted program and no eviction;
# and one cold characterization per device must do exactly the pinned GPU
# work, recording only explicit warps' transactions.
declared-full:
	$(GO) test -count=1 -run '^TestDeclaredKernelsFullScale$$' ./internal/microbench
	$(GO) test -count=1 -run '^TestDeclaredKeysFullScale$$' ./internal/apps/catalog
	$(GO) test -count=1 -run '^(TestPrimedSweepReplaysFullScale|TestColdCharacterizeWorkFullScale)$$' ./internal/engine

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The repo's own Go-source gate: go vet plus the igpulint type-aware
# analyzer suite (internal/analysis), checked against lint/baseline.json.
# Drift fails in both directions — new findings and stale baseline entries.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/igpulint ./...

# SARIF export of the current findings (what the CI lint job uploads).
lint-sarif:
	$(GO) run ./cmd/igpulint -format sarif ./... > igpulint.sarif

# Refresh lint/baseline.json from the current findings. Every generated
# entry carries a placeholder "why" the drift check rejects until a human
# justifies or fixes it.
lint-baseline:
	$(GO) run ./cmd/igpulint -update-baseline

# Fails on exported identifiers without doc comments in the contract
# packages (internal/engine, internal/perfmodel, internal/telemetry,
# internal/perfbench).
lint-docs:
	$(GO) run ./cmd/hazardcheck -lint-docs

# Fails on relative markdown links that do not resolve, across
# README/DESIGN/EXPERIMENTS/ROADMAP and docs/.
docs-links:
	$(GO) run ./cmd/hazardcheck -links

# Verify every device × app × model schedule, placement and trace, then
# smoke the transaction-trace export.
hazardcheck:
	$(GO) run ./cmd/hazardcheck
	$(GO) run ./cmd/advisor trace -device jetson-tx2 -app shwfs -model zc > /dev/null

# Combined statement coverage of the execution engine, the framework it
# must stay byte-equivalent to, the micro-benchmark characterization plan
# both of them run, the communication models' shared run skeleton, the
# memory substrate under all of them (caches, DRAM ports, I/O-coherence
# port), and the service in front of the engine (advisord, its client, the
# fleet layer); fails under 80%.
COVER_MIN ?= 80.0
cover:
	$(GO) test -coverprofile=coverage.out -coverpkg=./internal/engine,./internal/framework,./internal/microbench,./internal/comm,./internal/cache,./internal/memdev,./internal/coherence,./internal/advisord,./internal/advisord/client,./internal/fleet ./internal/engine ./internal/framework ./internal/microbench ./internal/comm ./internal/cache ./internal/memdev ./internal/coherence ./internal/advisord ./internal/advisord/client ./internal/fleet
	@total="$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}')"; \
	echo "engine+framework+microbench+comm+cache+memdev+coherence+advisord+client+fleet coverage: $$total% (minimum $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 >= min+0) ? 0 : 1 }' || \
		{ echo "coverage below $(COVER_MIN)%"; exit 1; }

# Short fuzz pass over the externally-facing parsers — the hazard event-trace
# parser (ParseEvents), the NDJSON warm-handoff export reader (a malicious or buggy
# peer must quarantine, never panic its puller), the saved-characterization
# loader behind `advisor advise -char`, the engine's warm-start cache loader
# (a bad entry is quarantined, a loaded one round-trips), the heat-artifact
# loader and the /v1/advise handler (every body gets valid advice, typed
# errors or a 4xx JSON error) — and over the batch simulator core against
# the per-access reference executor. The characterization and cache-entry
# seeds are ~3 KB files, and minimizing each new coverage input byte by byte
# can take the default 60 s, so those targets cap minimization at 2 s.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/hazard -run '^$$' -fuzz FuzzParseTrace -fuzztime $(FUZZTIME)
	$(GO) test ./internal/gpu -run '^$$' -fuzz FuzzBatchVsReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fleet -run '^$$' -fuzz FuzzReadExport -fuzztime $(FUZZTIME)
	$(GO) test ./internal/framework -run '^$$' -fuzz FuzzLoadCharacterization -fuzztime $(FUZZTIME) -fuzzminimizetime 2s
	$(GO) test ./internal/engine -run '^$$' -fuzz FuzzLoadCache -fuzztime $(FUZZTIME) -fuzzminimizetime 2s
	$(GO) test ./internal/framework -run '^$$' -fuzz FuzzLoadHeatArtifact -fuzztime $(FUZZTIME)
	$(GO) test ./internal/advisord -run '^$$' -fuzz FuzzAdviseRequest -fuzztime $(FUZZTIME)

# The paper-scale benchmark is its own module, so `go test ./...` skips it;
# its tests build the benchmark and check its reference answers.
paperbench:
	cd paperbench && $(GO) test .

# One full iteration of every engine sweep, batch, characterize and explore
# benchmark (the sweep pair is the headline: serial vs memoized-parallel
# advisory sweep), then at the default benchtime the warm advice-memo read
# path, the two per-layer kernels of a steady sweep (a miss into a full
# 16-way set and orbslam's CPU compute stretch), and the replay of a
# declared MB3-shaped stream per route (ns/txn): pinned on an uncached
# port, pinned on an I/O-coherence port, and cached.
bench:
	$(GO) test -run '^$$' -bench '^Benchmark(Sweep|AdviseBatch|Characterize|Explore)' -benchtime 1x ./internal/engine
	$(GO) test -run '^$$' -bench '^BenchmarkAdviseWarmHit$$' ./internal/engine
	$(GO) test -run '^$$' -bench '^(BenchmarkCacheFullSetMiss|BenchmarkCPUWork)$$' ./internal/cache ./internal/cpu
	$(GO) test -run '^$$' -bench '^BenchmarkReplayDeclaredStream$$' ./internal/gpu

# One quick-scale perfgate run: writes BENCH_<timestamp>.json and prints the
# human table (see docs/BENCHMARKS.md for the methodology).
perfgate:
	$(GO) run ./cmd/perfgate -run -quick

# The CI perf job: run the quick suite into BENCH_ci.json; fails when a
# cross-scenario Relation is violated. Absolute medians are host-dependent,
# so they are kept as a trajectory artifact, not compared.
perf-smoke:
	$(GO) run ./cmd/perfgate -run -quick -out BENCH_ci.json

# Observability smoke: the quick-scale 45-combo sweep (3 devices x 3 apps x
# 5 models) recorded as a Chrome trace_event file — open trace.json in
# chrome://tracing or https://ui.perfetto.dev.
trace:
	$(GO) run ./cmd/advisor sweep -quick -trace trace.json

# Fleet storm harness: a 3-shard advisord fleet under one second of
# closed-loop load while a cold shard joins (warm handoff) and another is
# killed mid-run, under the race detector (correctness under churn and fault
# plans lives in `make dst`). FLEET_SUMMARY receives the latency artifact CI
# uploads.
FLEET_SUMMARY ?= fleet-summary.json
fleet:
	FLEET_SUMMARY=$(FLEET_SUMMARY) $(GO) test -race -run 'TestFleetStorm' -v ./internal/fleet/

# Deterministic simulation suite: DST_SEEDS seeded fleet scenarios (crash,
# restart from disk, partition, link faults, drain, warm handoff, named fault
# plans) in virtual time, invariant-checked after every step, plus the fired
# gate that every plan's rules inject, under the race detector. A failing
# seed is shrunk and its repro artifact written to DST_ARTIFACT; replay it
# with the `go test ./internal/dst -run TestDSTSeedSweep -dst.seed=N`
# command the artifact carries.
DST_SEEDS ?= 200
DST_ARTIFACT ?= dst-repro.json
dst:
	DST_ARTIFACT=$(DST_ARTIFACT) $(GO) test -race -count=1 ./internal/dst -dst.seeds=$(DST_SEEDS)

ci: fmt vet lint lint-docs docs-links build race declared-full paperbench cover fuzz hazardcheck trace fleet dst perf-smoke
