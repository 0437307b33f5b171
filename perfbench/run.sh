#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload olap-wide --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The build and the run write only under
# .bench_build/ in the current directory: the Go build cache, temporary
# files, the binary and the Chrome traces of traced runs.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
