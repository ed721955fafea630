#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it from the
# repository root; arguments go to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload paper-tiny --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and the benchmark's spans, profiles
# and point caches all stay under $CARGO_TARGET_DIR (default .bench_build)
# in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
