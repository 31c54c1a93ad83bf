#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root: sh bench/run.sh --workload <name|all> --seed <n>
# The binary, the Go build cache, the build's temporary files and the Go
# tool's own state all go under .bench_build at the repository root.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$out/dapbench" .)
exec "$out/dapbench" "$@"
