#!/usr/bin/env bash
# report-digests.sh — fingerprints of the byte-identity output set.
#
# Runs afareport on every report a simulator-cost or refactoring change
# must leave byte-identical — the figures, Table II and the headline
# (-fig 6,7,8,9,11,12 -headline, then -fig 10,13 -table 2), every
# -ablate registry entry (fw, used, future, coalesce, tail, pts,
# faults, recovery, writes, hedging, load, iopath), and the JSON and
# CSV renderers (-fig 6,12,13 -format json, -fig 10,12 -format csv) —
# each at -ssds 16 -runtime 200ms, strips the "[... wall, parallel=N]"
# wall-clock banners, and prints one "sha256  name" line per report.
# Then the same for the five examples (quickstart, tailhunt, anatomy,
# profiler, chaos; each deterministic and under a second) and for
# nvmectl's list, id-ctrl, smart-log, format and profile commands at
# -ssds 4 (-dev 1 where a command takes one, and profile of every
# device as well).
#
# Revisions before afareport honoured -format for Figs 12 and 13 print
# those two as text, so against them the two format entries differ by
# design (and only there); every other digest must match.
#
#   scripts/report-digests.sh                  # digests of this checkout
#   scripts/report-digests.sh -against HEAD~1  # diff against a revision
#
# -against REV (first argument only) also builds REV's afareport,
# nvmectl and examples from a `git archive` export in the temporary
# directory, runs this script's output list against both builds, prints
# the diff of the two digest lists and exits non-zero if it is not
# empty. The working tree is built as it is, uncommitted edits included.
#
# Further arguments pass through to every afareport run (e.g. -seed 7,
# or -parallel 1 vs -parallel 4 for the serial-vs-parallel cross-check
# scripts/check.sh runs); the examples and nvmectl take none.
set -euo pipefail
cd "$(dirname "$0")/.."

against=
if [ "${1:-}" = -against ]; then
	against=${2:?"-against needs a revision"}
	shift 2
fi

examples="quickstart tailhunt anatomy profiler chaos"

# build OUT puts the current directory's afareport, nvmectl and examples
# into the directory OUT.
build() {
	mkdir -p "$1"
	go build -o "$1/" ./cmd/afareport ./cmd/nvmectl $(printf './examples/%s ' $examples)
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
build "$tmp/head"

# digest NAME COMMAND... prints the digest of COMMAND's output with the
# wall-clock banners stripped.
digest() {
	local name=$1
	shift
	"$@" | grep -v '^\[.* wall, parallel=[0-9]*\]$' |
		sha256sum | sed "s/ .*/  $name/"
}

# digests DIR ARGS... prints the digest list of the build in DIR; ARGS
# go to afareport.
digests() {
	local bin=$1
	shift
	local r=("$bin/afareport" -ssds 16 -runtime 200ms)
	digest figs "${r[@]}" -fig 6,7,8,9,11,12 -headline "$@"
	digest figs-10-13-table2 "${r[@]}" -fig 10,13 -table 2 "$@"
	digest figs-json "${r[@]}" -fig 6,12,13 -format json "$@"
	digest figs-csv "${r[@]}" -fig 10,12 -format csv "$@"
	for a in fw used future coalesce tail pts faults recovery writes hedging load iopath; do
		digest "ablate-$a" "${r[@]}" -ablate "$a" "$@"
	done
	for e in $examples; do
		digest "example-$e" "$bin/$e"
	done
	digest nvmectl-list "$bin/nvmectl" list -ssds 4
	for c in id-ctrl smart-log format profile; do
		digest "nvmectl-$c" "$bin/nvmectl" "$c" -ssds 4 -dev 1
	done
	digest nvmectl-profile-all "$bin/nvmectl" profile -ssds 4
}

if [ -z "$against" ]; then
	digests "$tmp/head" "$@"
	exit
fi

mkdir "$tmp/rev"
git archive "$against" | tar -x -C "$tmp/rev"
(cd "$tmp/rev" && build "$tmp/rev-bin")
digests "$tmp/rev-bin" "$@" >"$tmp/before"
digests "$tmp/head" "$@" >"$tmp/after"
if diff "$tmp/before" "$tmp/after"; then
	echo "report-digests: $(wc -l <"$tmp/after") outputs identical to $against" >&2
else
	exit 1
fi
