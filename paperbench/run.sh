#!/usr/bin/env bash
# Builds the paper-scale benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash paperbench/run.sh --workload serve-warm --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and traced-run outputs stay under
# .bench_build/ in the checkout. The last line of standard output is the
# JSON result; see main.go for the workloads and metrics.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
# The Go toolchain keeps its caches and telemetry counters under these.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off
(cd "$root/paperbench" && go build -o "$build/paperbench" .)
exec "$build/paperbench" -out "$build/out" "$@"
