#!/usr/bin/env bash
# Builds the service benchmark from the checkout's sources and runs it.
# Run from the repository root; arguments pass through to the benchmark:
#
#   bash svcbench/run.sh --workload lookup --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# current directory (Go build cache, toolchain config, binary, traces).
set -euo pipefail

root=$(pwd)
dir=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache"
export GOPATH="$out/go-path"
export GOMODCACHE="$out/go-path/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTELEMETRY=off
export TMPDIR="$out/tmp"

(cd "$dir" && go build -o "$out/svcbench" .)
exec "$out/svcbench" "$@"
