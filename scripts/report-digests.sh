#!/usr/bin/env bash
# report-digests.sh — fingerprints of the byte-identity report set.
#
# Runs afareport on every report a simulator-cost or refactoring change
# must leave byte-identical — the figures, Table II and the headline
# (-fig 6,7,8,9,11,12 -headline, then -fig 10,13 -table 2) and every
# -ablate registry entry (fw, used, future, coalesce, tail, pts,
# faults, recovery, writes, hedging, load, iopath) — each at
# -ssds 16 -runtime 200ms, strips the "[... wall, parallel=N]"
# wall-clock banners, and prints one "sha256  name" line per report.
# Run it on two checkouts and diff the output:
#
#   scripts/report-digests.sh > after.txt
#   (cd ../parent && scripts/report-digests.sh) > before.txt
#   diff before.txt after.txt
#
# Extra arguments pass through to every afareport run (e.g. -seed 7, or
# -parallel 1 vs -parallel 4 for the serial-vs-parallel cross-check
# scripts/check.sh runs).
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/afareport" ./cmd/afareport

digest() {
	local name=$1
	shift
	"$tmp/afareport" -ssds 16 -runtime 200ms "$@" |
		grep -v '^\[.* wall, parallel=[0-9]*\]$' |
		sha256sum | sed "s/ .*/  $name/"
}

digest figs -fig 6,7,8,9,11,12 -headline "${@}"
digest figs-10-13-table2 -fig 10,13 -table 2 "${@}"
for a in fw used future coalesce tail pts faults recovery writes hedging load iopath; do
	digest "ablate-$a" -ablate "$a" "${@}"
done
