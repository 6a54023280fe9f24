#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given flags. Run it from the repository root:
#
#   bash benchmark/run.sh --workload predict-warm --seed 1 --seconds 15 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the toolchain's home directory and
# the benchmark's stores.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOTELEMETRY=off

go -C benchmark build -o "$build/vppb-benchmark" .
exec "$build/vppb-benchmark" -root . -bounds BENCHMARK.json -workdir "$build/work" "$@"
