#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload join --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product (the binary, the Go
# build cache, the Go configuration directory) stays under .bench_build in
# the current directory, and no network access is attempted.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/aurochs-perfbench" .) >&2
exec "$out/aurochs-perfbench" "$@"
