#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root;
# every argument passes through to it (see bench/README.md). The build,
# its Go cache and the binary stay under .bench_build/, so a run writes
# nothing outside the tree but that directory and bench/out/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOENV=off GOFLAGS= \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C bench build -buildvcs=false -o "$build/bench" .
exec "$build/bench" "$@"
