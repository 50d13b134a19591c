#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The Go build cache, the go tool's
# configuration and the binary stay under .bench_build/ in the working
# directory, and the toolchain is not allowed to fetch anything.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
