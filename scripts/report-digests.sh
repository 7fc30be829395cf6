#!/usr/bin/env bash
# report-digests.sh — fingerprints of the byte-identity report set.
#
# Runs afareport on every report a simulator-cost or refactoring change
# must leave byte-identical — the figures, Table II and the headline
# (-fig 6,7,8,9,11,12 -headline, then -fig 10,13 -table 2), every
# -ablate registry entry (fw, used, future, coalesce, tail, pts,
# faults, recovery, writes, hedging, load, iopath), and the JSON and
# CSV renderers (-fig 6,12,13 -format json, -fig 10,12 -format csv) —
# each at -ssds 16 -runtime 200ms, strips the "[... wall, parallel=N]"
# wall-clock banners, and prints one "sha256  name" line per report.
#
# Revisions before afareport honoured -format for Figs 12 and 13 print
# those two as text, so against them the two format entries differ by
# design (and only there); every other digest must match.
#
#   scripts/report-digests.sh                  # digests of this checkout
#   scripts/report-digests.sh -against HEAD~1  # diff against a revision
#
# -against REV (first argument only) also builds REV's afareport from a
# `git archive` export in the temporary directory, runs this script's
# report list against both binaries, prints the diff of the two digest
# lists and exits non-zero if it is not empty. The working tree is
# built as it is, uncommitted edits included.
#
# Further arguments pass through to every afareport run (e.g. -seed 7,
# or -parallel 1 vs -parallel 4 for the serial-vs-parallel cross-check
# scripts/check.sh runs).
set -euo pipefail
cd "$(dirname "$0")/.."

against=
if [ "${1:-}" = -against ]; then
	against=${2:?"-against needs a revision"}
	shift 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/afareport" ./cmd/afareport

# digests BINARY ARGS... prints the digest list of one afareport build.
digests() {
	local bin=$1
	shift
	digest() {
		local name=$1
		shift
		"$bin" -ssds 16 -runtime 200ms "$@" |
			grep -v '^\[.* wall, parallel=[0-9]*\]$' |
			sha256sum | sed "s/ .*/  $name/"
	}
	digest figs -fig 6,7,8,9,11,12 -headline "$@"
	digest figs-10-13-table2 -fig 10,13 -table 2 "$@"
	digest figs-json -fig 6,12,13 -format json "$@"
	digest figs-csv -fig 10,12 -format csv "$@"
	for a in fw used future coalesce tail pts faults recovery writes hedging load iopath; do
		digest "ablate-$a" -ablate "$a" "$@"
	done
}

if [ -z "$against" ]; then
	digests "$tmp/afareport" "$@"
	exit
fi

mkdir "$tmp/rev"
git archive "$against" | tar -x -C "$tmp/rev"
(cd "$tmp/rev" && go build -o "$tmp/afareport-rev" ./cmd/afareport)
digests "$tmp/afareport-rev" "$@" >"$tmp/before"
digests "$tmp/afareport" "$@" >"$tmp/after"
if diff "$tmp/before" "$tmp/after"; then
	echo "report-digests: $(wc -l <"$tmp/after") reports identical to $against" >&2
else
	exit 1
fi
