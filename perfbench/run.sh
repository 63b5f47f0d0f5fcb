#!/usr/bin/env bash
# Builds perfbench from the checkout it sits in and runs one workload:
#
#   bash perfbench/run.sh --workload crowd-paper --seed 1 --seconds 10 --trace 0
#
# Run from the root of the checkout. The Go build cache, the binary, the
# benchmark's data dirs and its span files all live under .bench_build in
# the checkout; nothing is fetched (the module has no dependencies beyond
# the sheriff module next to it).
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/config"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local \
	GOPROXY=off GOSUMDB=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
