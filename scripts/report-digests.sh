#!/usr/bin/env bash
# report-digests.sh — fingerprints of the byte-identity report set.
#
# Runs afareport on the reports a simulator-cost change must leave
# byte-identical — the figures and headline
# (-fig 6,7,8,9,11,12 -headline) and the ablations fw, used, load,
# writes, iopath and hedging — each at -ssds 16 -runtime 200ms, strips
# the "[... wall, parallel=N]" wall-clock banners, and prints one
# "sha256  name" line per report. Run it on two checkouts and diff the
# output:
#
#   scripts/report-digests.sh > after.txt
#   (cd ../parent && scripts/report-digests.sh) > before.txt
#   diff before.txt after.txt
#
# Extra arguments pass through to every afareport run (e.g. -seed 7).
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
for a in fw used load writes iopath hedging; do
	digest "ablate-$a" -ablate "$a" "${@}"
done
