#!/usr/bin/env bash
# bench-guard.sh — engine-throughput regression guard.
#
# BENCH_engine.json is committed per-merge, so HEAD always records the
# events-per-second the simulator's inner loop achieved on the last
# accepted commit. This script reruns BenchmarkEngineThroughput and
# BenchmarkTenantMux once, compares the fresh figures against the
# committed ones, and fails if any lost more than BENCH_GUARD_THRESHOLD
# percent (default 20) — catching hot-path regressions that slip past
# afalint's static hot-set rules (an O(n) scan that grew, an event
# storm) before they land. Guarded figures:
#
#   events_per_sec of the first row (headline-64ssd) — the closed-loop
#   inner loop;
#   arrivals_per_sec of each tenant-mux-* row — the open-loop
#   multiplexer's per-arrival path at 10k and 100k tenant populations;
#   mean_lat_ns of each iopath-ull-* row — the low-latency tier's
#   headline figure. Unlike the wall-clock rates these are simulated
#   latencies, machine-independent and deterministic, so the gate is
#   tight (BENCH_GUARD_LAT_THRESHOLD, default 1%) and fails on a RISE:
#   a slower simulated I/O path is a model regression, not noise.
#   Deliberate model changes regenerate the baseline in the same commit.
#
# The comparison itself is scripts/benchguard, a stdlib Go helper that
# decodes both files as core.EngineBenchRow lists, so no gate depends on
# the file's key order or line layout, and that skips a gate whose row
# the committed baseline predates (see its package comment).
#
# The committed BENCH_engine.json is restored afterwards: regenerating
# the baseline is a deliberate act (commit the file the benchmark
# writes), not a side effect of running the guard. Absolute numbers are
# machine-dependent; the guard is only meaningful when the baseline was
# recorded on hardware comparable to where it runs (CI baselines come
# from CI merges).
set -euo pipefail
cd "$(dirname "$0")/.."

committed="$(mktemp)"
saved="$(mktemp)"
fresh="$(mktemp)"
trap 'rm -f "${committed}" "${saved}" "${fresh}"' EXIT
if ! git show HEAD:BENCH_engine.json >"${committed}" 2>/dev/null || [ ! -s "${committed}" ]; then
  echo "bench-guard: no committed BENCH_engine.json at HEAD; nothing to compare against" >&2
  exit 0
fi

had_file=0
if [ -f BENCH_engine.json ]; then
  cp BENCH_engine.json "${saved}"
  had_file=1
fi

go test -run '^$' -bench 'BenchmarkEngineThroughput|BenchmarkTenantMux|BenchmarkIOPathLatency' -benchtime=1x . >/dev/null

cp BENCH_engine.json "${fresh}"
if [ "${had_file}" = 1 ]; then
  cp "${saved}" BENCH_engine.json
else
  rm -f BENCH_engine.json
fi

go run ./scripts/benchguard -baseline "${committed}" -fresh "${fresh}"
