#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash ftbench/run.sh --workload solve --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Build outputs and the Go build cache stay
# inside the checkout, under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
(cd "$root/ftbench" && go build -o "$out/ftbench" .) >&2
exec "$out/ftbench" "$@"
