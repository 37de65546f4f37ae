#!/usr/bin/env bash
# Builds the three binaries the benchmark needs (pytfhed, pytfhe-worker and the
# benchmark itself) and runs the benchmark. Everything the Go toolchain writes
# stays inside the checkout: the build cache, GOPATH and the binaries live in
# .bench_build/, results and traces in bench/out/. No clock runs during the build.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
build=$root/.bench_build
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOWORK=off
mkdir -p "$build/bin" "$GOTMPDIR" "$XDG_CONFIG_HOME/go/telemetry"
# Telemetry off: otherwise the go command leaves a background process behind
# that still writes its counter files after the build has returned.
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/bin/" ./cmd/pytfhed ./cmd/pytfhe-worker
(cd bench && go build -o "$build/bin/pytfhe-bench" .)
exec "$build/bin/pytfhe-bench" -root "$root" "$@"
