#!/bin/bash
# The driver's entry point: `bash bench/run.sh --workload W --seed N
# --seconds S --trace 0|1`, from the root of a checkout. It is `go run
# ./bench` done as build, then exec — so the process the driver started is
# the benchmark itself, with no go command standing between them — and
# with everything the go command writes — build cache, module cache,
# temporary files, its own configuration and counters — kept inside the
# checkout under .bench_build/ (which .gitignore names), so a run reads and
# writes nothing outside it; the first run in a fresh checkout builds from
# source.
#
# Telemetry is switched off in that private configuration first: with a
# fresh configuration directory the go command otherwise starts its
# telemetry sidecar, a detached child that outlives the run.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-modcacherw
go build -o "$build/bin/bench" ./bench
exec "$build/bin/bench" "$@"
