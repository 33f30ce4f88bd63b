# Developer entry points; `make ci` runs every job of
# .github/workflows/ci.yml. The CI gate job also re-runs vet and -race on
# the telemetry, heatmap and advisord packages and smokes the disabled-fault
# overhead benchmark.

GO ?= go

.PHONY: all build test race fmt vet lint lint-sarif lint-baseline lint-docs docs-links hazardcheck cover fuzz paperbench bench perfgate perf-smoke baseline trace fleet dst ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

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
	$(GO) run ./cmd/trace -device jetson-tx2 -app shwfs -model zc > /dev/null

# Combined statement coverage of the execution engine, the framework it
# must stay byte-equivalent to, and the micro-benchmark characterization
# plan both of them run; fails under 80%.
COVER_MIN ?= 80.0
cover:
	$(GO) test -coverprofile=coverage.out -coverpkg=./internal/engine,./internal/framework,./internal/microbench ./internal/engine ./internal/framework ./internal/microbench
	@total="$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}')"; \
	echo "engine+framework+microbench coverage: $$total% (minimum $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 >= min+0) ? 0 : 1 }' || \
		{ echo "coverage below $(COVER_MIN)%"; exit 1; }

# Short fuzz pass over the externally-facing parsers — the hazard event-trace
# parser (ParseEvents) and the NDJSON warm-handoff export reader (a malicious or buggy
# peer must quarantine, never panic its puller) — and over the batch
# simulator core against the per-access reference executor.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/hazard -run '^$$' -fuzz FuzzParseTrace -fuzztime $(FUZZTIME)
	$(GO) test ./internal/gpu -run '^$$' -fuzz FuzzBatchVsReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fleet -run '^$$' -fuzz FuzzReadExport -fuzztime $(FUZZTIME)

# The paper-scale benchmark is its own module, so `go test ./...` skips it;
# its tests build the benchmark and check its reference answers.
paperbench:
	cd paperbench && $(GO) test .

# One full iteration of every engine benchmark (the sweep pair is the
# headline: serial vs memoized-parallel advisory sweep).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/engine

# One quick-scale perfgate run: writes BENCH_<timestamp>.json and prints the
# human table (see docs/BENCHMARKS.md for the methodology).
perfgate:
	$(GO) run ./cmd/perfgate -run -quick

# The CI perf job: run the quick suite, then compare against the committed
# baseline in warn-only mode (absolute medians are host-dependent, so a
# shared-runner comparison informs but never fails the build).
perf-smoke:
	$(GO) run ./cmd/perfgate -run -quick -out BENCH_ci.json
	$(GO) run ./cmd/perfgate -baseline bench/baseline.json -candidate BENCH_ci.json -warn-only

# Refresh the committed quick-scale baseline (run on a quiet machine).
baseline:
	$(GO) run ./cmd/perfgate -update-baseline

# Observability smoke: the quick-scale 45-combo sweep (3 devices x 3 apps x
# 5 models) recorded as a Chrome trace_event file — open trace.json in
# chrome://tracing or https://ui.perfetto.dev.
trace:
	$(GO) run ./cmd/advisor -quick -sweep -trace trace.json

# Fleet storm harness: a 3-shard advisord fleet under closed-loop load while
# a cold shard joins (warm handoff) and another is killed mid-run, plus the
# same load shape under the chaos suite's flaky-engine schedule — all under
# the race detector. Runs the short smoke profile by default (correctness
# under churn lives in `make dst` now); FLEET_STORM=full restores the long
# window. FLEET_SUMMARY receives the latency artifact CI uploads.
FLEET_SUMMARY ?= fleet-summary.json
fleet:
	FLEET_SUMMARY=$(FLEET_SUMMARY) $(GO) test -race -run 'TestFleetStorm' -v ./internal/fleet/

# Deterministic simulation suite: DST_SEEDS seeded fleet scenarios (crash,
# restart, partition, link faults, drain, warm handoff) in virtual time,
# invariant-checked after every step, under the race detector. A failing
# seed is shrunk and its repro artifact written to DST_ARTIFACT; replay it
# with the `go test ./internal/dst -run TestDSTSeedSweep -dst.seed=N`
# command the artifact carries.
DST_SEEDS ?= 200
DST_ARTIFACT ?= dst-repro.json
dst:
	DST_ARTIFACT=$(DST_ARTIFACT) $(GO) test -race -count=1 ./internal/dst -dst.seeds=$(DST_SEEDS)

ci: fmt vet lint lint-docs docs-links build race paperbench cover fuzz hazardcheck trace fleet dst perf-smoke
