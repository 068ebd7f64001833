#!/usr/bin/env bash
# The benchmark contract's command: build rowperf from the checkout's
# sources and run one pass,
#
#   bash cmd/rowperf/bench.sh --workload W --seed N --seconds S --trace 0|1
#
# from the root of the checkout. Everything the build and the run
# write — Go's build cache, the binary, temp dirs, the traced pass's
# spans — stays under cmd/rowperf/out/ (git-ignored); the build's part
# is in a dot directory there, which `go build ./...` does not walk.
set -euo pipefail

# A checkout without the simulator's sources has nothing to measure.
if [ ! -f go.mod ] || [ ! -d internal/sim ]; then
	echo "bench.sh: run from the root of a rowsim checkout (no go.mod / internal/sim here)" >&2
	exit 2
fi

build="$PWD/cmd/rowperf/out/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false TMPDIR="$build/tmp"

# With a fresh config dir the go command would start its telemetry
# sidecar, a detached child that outlives this script; "off" is what
# `go telemetry off` writes, and with it no child is started.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$build/rowperf" ./cmd/rowperf
exec "$build/rowperf" "$@"
