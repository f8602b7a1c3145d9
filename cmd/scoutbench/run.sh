#!/usr/bin/env bash
# BENCHMARK.json's command: build scoutbench from the checkout's source
# and run it with the driver's arguments. Everything go writes — build
# cache, module path, its own config — is kept under .bench_build in the
# checkout, so a run touches nothing outside it.
set -euo pipefail
# Without the module there is nothing to build; say so before starting go.
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "scoutbench: no go.mod and internal/ here; run from the root of a checkout of the repository" >&2
	exit 2
fi
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
# go starts a detached telemetry child about once a day and does not wait
# for it; with the mode off no go command starts one, so nothing of a run
# outlives it.
mkdir -p "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
go build -o "$out/scoutbench" ./cmd/scoutbench
exec "$out/scoutbench" "$@"
