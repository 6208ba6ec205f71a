#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#	bash benchmark/run.sh --workload steady --seed 1 --seconds 5 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# repository root, including the Go build cache.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/benchmark/go.mod" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files in here too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/benchmark" && go build -o "$build/nvdimmc-benchmark" .)
exec "$build/nvdimmc-benchmark" "$@"
