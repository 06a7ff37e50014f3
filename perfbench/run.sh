#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload of it.
#
#   bash perfbench/run.sh --workload cold-suite --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, the binary, the
# daemon stores and the span files all stay under .bench_build/ there;
# nothing is fetched over the network. See perfbench/README.md.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod

go -C "$root/perfbench" build -o "$out/perfbench-bin" .
exec "$out/perfbench-bin" --out "$out/perfbench" "$@"
