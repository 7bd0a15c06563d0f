#!/usr/bin/env bash
# Builds the benchmark from source in the checkout and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload kernel-smt --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOPATH="$build/go-path"
export GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOENV=off
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export TMPDIR="$build/tmp"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
