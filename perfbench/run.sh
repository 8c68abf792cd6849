#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload kv-hot --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and span dumps go under .bench_build
# (or $CARGO_TARGET_DIR when set), so nothing is written outside the
# checkout. The build needs no network: the module's only dependency is the
# repository itself, through a local replace directive.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
