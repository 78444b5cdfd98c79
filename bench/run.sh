#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it from the checkout's
# root. Everything the Go toolchain writes (build cache, temp files,
# binaries) stays under .bench_build inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$build/ijbench" .
cd "$root"
exec "$build/ijbench" "$@"
