#!/usr/bin/env bash
# Builds the benchmark from source and runs it. From the repository root:
#
#   bash perfbench/run.sh --workload offline|cold-direct|hot-fleet --seed N --seconds S --trace 0|1
#
# Everything the build and the run write (Go build cache, binary, saved
# artifacts, spans, trajectory) goes under the build directory,
# $CARGO_TARGET_DIR or .bench_build. The Go toolchain runs offline: the
# benchmark's module needs nothing but the repository and the standard
# library.
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$PWD/$build" ;; esac
mkdir -p "$build/perfbench"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -trimpath -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" "$@"
