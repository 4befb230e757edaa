#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.:
#   bash perfbench/run.sh --workload serve-bc --seed 1 --seconds 10 --trace 0
# Build outputs and the Go build cache stay under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
