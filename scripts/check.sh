#!/usr/bin/env bash
# Extended tier-1 gate: everything CI needs to trust a change.
#
#   build        — the module compiles;
#   gofmt        — every Go source (all of it lives under cmd, examples,
#                  internal and bench; the root holds none) is
#                  gofmt-clean, except the afalint fixtures under
#                  internal/lint/testdata, whose positional `want:`
#                  comments pin column layouts;
#   vet          — stdlib static checks;
#   bench vet    — the benchmark module (bench/, a separate Go module
#                  that ./... skips) compiles and vets against this
#                  tree, right beside the root vet, so a change to
#                  internal/core that breaks it fails here, not only
#                  in a benchmark run or the bench tests at the end;
#   arm64 fusion — the simulator packages compiled for arm64 with their
#                  assembly listed (-S) hold no fused multiply-add
#                  (FMADD/FMSUB/FNMADD/FNMSUB): arm64 may fuse x*y+z
#                  into one rounding, which would make float results,
#                  and so the reports, differ from amd64's. The build
#                  output is captured first, so a build error fails
#                  the step too;
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
#                  may depend on state another test left behind.
#                  -shuffle=on implies -count=1, so nothing is served
#                  from the test cache. The suite holds the determinism
#                  and report gates: internal/core's
#                  TestParallelDeterminism (exported reports of every
#                  fan-out byte-identical at -parallel 1 and 8),
#                  cmd/afareport's TestReportDigests (every figure,
#                  Table II, the headline, the JSON/CSV renderers and
#                  every -ablate entry against the committed
#                  testdata/report-digests.txt; under -race at
#                  -parallel 4 only, plain `go test` adds -parallel 1),
#                  the examples' Output blocks and nvmectl's golden
#                  outputs, and cmd/afareport's TestEveryAblationRuns.
#   bench tests  — the benchmark module's own tests (bench/ is a
#                  separate Go module, so ./... above skips it).
set -euo pipefail
cd "$(dirname "$0")/.."

go build ./...
unformatted=$(gofmt -l cmd examples internal bench | grep -v '^internal/lint/testdata/' || true)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi
go vet ./...
(cd bench && go build ./... && go vet ./...)
if ! asm=$(GOARCH=arm64 go build -a -gcflags='repro/internal/...=-S' ./internal/... 2>&1); then
	echo "arm64: build failed:" >&2
	GOARCH=arm64 go build ./internal/... || true # the errors, without the listing
	exit 1
fi
fused=$(grep -E 'F(N)?M(ADD|SUB)[DS]' <<<"$asm" || true)
if [ -n "$fused" ]; then
	echo "arm64: fused multiply-add instructions in the simulator:" >&2
	echo "$fused" >&2
	exit 1
fi
echo "arm64: 0 fused multiply-add instructions"
go run ./cmd/afalint -baseline lint.baseline ./...
go test -race -shuffle=on ./...
(cd bench && go test ./...)
