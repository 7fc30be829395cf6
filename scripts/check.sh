#!/usr/bin/env bash
# Extended tier-1 gate: everything CI needs to trust a change.
#
#   build        — the module compiles;
#   gofmt        — every Go source is gofmt-clean, except the afalint
#                  fixtures under internal/lint/testdata, whose
#                  positional `want:` comments pin column layouts;
#   vet          — stdlib static checks;
#   afalint      — one pass of all nineteen rules against the one debt
#                  ledger, lint.baseline: the determinism contract
#                  (DESIGN.md §5: no wall clock, no global rand, no
#                  map-order dependence, no concurrency or float
#                  equality in the sim core, no sim-core import of the
#                  orchestration tier, §7), the performance contract
#                  (§8: no new hot-path allocation, interface
#                  dispatch, defer, growth append, or map traffic) and
#                  the state-integrity contract (§10: pooled types,
#                  Reset() and Snapshot()/Clone() methods cover every
#                  mutable field, no package-level vars in sim-core, no
#                  use-after-release of pooled pointers). The same
#                  pass runs again inside the suite below as
#                  internal/lint's self-check, beside cmd/afalint's
#                  test that README's rule table matches `afalint -doc`;
#   race+shuffle — the full suite once, under the race detector with
#                  test order shuffled: the sim core is single-threaded
#                  by contract and the runner tier merges in submission
#                  order, so the detector must be silent, and no test
#                  may depend on state another test left behind. One
#                  pass covers what used to be three (-race, -shuffle,
#                  and a fault/kernel/raid re-run): the fault, timeout,
#                  write-path, and rebuild tests all live in the suite
#                  this runs, and -shuffle=on implies -count=1 so
#                  nothing is served from the test cache.
#   parallel     — the serial-vs-parallel determinism cross-check re-run
#                  under -race: exported reports of every fan-out —
#                  including the write ablation and its rebuild stream —
#                  must be byte-identical at -parallel 1 and 8.
#   report digests — the same contract at the CLI: every output
#                  scripts/report-digests.sh fingerprints (the
#                  figures, Table II, the headline, every -ablate
#                  entry, the JSON/CSV figure renderers, the examples
#                  and nvmectl's commands) hashes identically with
#                  afareport at -parallel 1 and 4.
#   ablations    — no separate step: the race+shuffle pass runs
#                  cmd/afareport's TestEveryAblationRuns, which drives
#                  every -ablate registry entry end to end at a small
#                  scale (9 SSDs, 20 ms) through the CLI's report path.
#   bench tests  — the benchmark module's own tests (bench/ is a
#                  separate Go module, so ./... above skips it).
set -euo pipefail
cd "$(dirname "$0")/.."

go build ./...
unformatted=$(gofmt -l cmd examples internal bench ./*.go | grep -v '^internal/lint/testdata/' || true)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi
go vet ./...
go run ./cmd/afalint -baseline lint.baseline ./...
go test -race -shuffle=on ./...
go test -race -count=1 -run 'TestParallelDeterminism|TestMap' ./internal/core/ ./internal/runner/
diff <(scripts/report-digests.sh -parallel 1) <(scripts/report-digests.sh -parallel 4)
(cd bench && go test ./...)
