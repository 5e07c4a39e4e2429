#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it; every argument is
# passed on (see README.md). Run it from the repository root:
#
#   bash cmd/bench/run.sh -seed 1 -out result.json
#   bash cmd/bench/run.sh --workload serve-read --seed 3 --seconds 22 --trace 0
#
# Everything the build and the runs leave behind goes to .bench_build/ in
# the checkout: binaries, the Go build cache, temporary files and state.
set -euo pipefail

if [[ ! -f go.mod || ! -f cmd/bench/go.mod || ! -d internal ]]; then
	echo "bench: run from the root of a schemaevo checkout" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd cmd/bench && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" "$@"
