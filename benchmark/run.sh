#!/usr/bin/env bash
# The benchmark driver's entry point: builds the benchmark from source in
# the checkout it is started from (the first run pays for the build, later
# runs hit the cache) and runs it with the driver's arguments. Everything
# the Go toolchain writes — build cache, binary, telemetry — stays under
# .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod in $PWD: the program under test is not in this checkout" >&2
	exit 1
fi
build="$PWD/.bench_build"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export PATH="$PATH:/usr/local/go/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
# With telemetry in its default mode the go command forks a detached
# side-car (`go` re-executing itself) that outlives the build; the mode
# file is the only switch for it.
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/rumbench" ./benchmark
exec "$build/rumbench" "$@"
