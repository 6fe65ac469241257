#!/usr/bin/env bash
# Builds the benchmark and the chirond server from source into .bench_build/
# and runs the benchmark with the given arguments:
#
#   bash bench/run.sh -workload train-n5 -seed 7 -seconds 15 -trace 0
#   bash bench/run.sh compare results-a results-b
#
# Run it from the repository root. Every file the Go toolchain writes (build
# cache, temporary files, telemetry) stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/chirond || ! -f bench/go.mod ]]; then
  echo "bench/run.sh: run from the root of a chiron checkout" >&2
  exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
  GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
  GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -o "$build/chirond" ./cmd/chirond
(cd bench && go build -o "$build/chiron-bench" .)
exec "$build/chiron-bench" "$@"
