#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments. Run it from the checkout root:
#
#   bash bench/run.sh -workload mirs-tight -seed 1 -seconds 10 -trace 0
#
# The binary and every Go cache stay under .bench_build in the checkout,
# so nothing is read from or written to the user's Go caches, and the
# build never reaches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-build" GOMODCACHE="$out/go-mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go build -C "$root/bench" -o "$out/mirsbench" .
exec "$out/mirsbench" "$@"
