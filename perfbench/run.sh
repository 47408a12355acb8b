#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given, from the root of the checkout:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write lands under .bench_build/: the Go
# build cache, the binary, serve caches and trace files.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
