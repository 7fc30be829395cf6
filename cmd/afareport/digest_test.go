package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"regexp"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/report-digests.txt from this run")

const digestFile = "testdata/report-digests.txt"

// digestRun is one afareport run TestReportDigests pins, by name.
type digestRun struct{ name, args string }

// digestRuns are the figures, Table II and the headline, the JSON and
// CSV renderers, one run per -ablate entry, then the two -seeds paths:
// a single-configuration figure's sweep and an ablation's sweep tail.
func digestRuns() []digestRun {
	runs := []digestRun{
		{"figs", "-fig 6,7,8,9,11,12 -headline"},
		{"figs-10-13-table2", "-fig 10,13 -table 2"},
		{"figs-json", "-fig 6,12,13 -format json"},
		{"figs-csv", "-fig 10,12 -format csv"},
	}
	for _, name := range ablationNames() {
		runs = append(runs, digestRun{"ablate-" + name, "-ablate " + name})
	}
	return append(runs,
		digestRun{"fig6-seeds2", "-fig 6 -seeds 2"},
		digestRun{"ablate-hedging-seeds2", "-ablate hedging -seeds 2"})
}

// wallLine matches the wall-clock banner, the one line -parallel and
// the host may change.
var wallLine = regexp.MustCompile(`^\[.* wall, parallel=[0-9]*\]$`)

// digest is the sha256 of out without its wall-clock banners, each
// remaining line newline-terminated.
func digest(out string) string {
	h := sha256.New()
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if !wallLine.MatchString(line) {
			io.WriteString(h, line+"\n")
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// digestWidths are the -parallel widths TestReportDigests runs at: the
// serial reference order and a pool wider than a 2-CPU host. Under the
// race detector, where a pass costs minutes, only the pool runs;
// internal/core's TestParallelDeterminism compares serial with parallel
// there.
func digestWidths() []int {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return []int{4}
			}
		}
	}
	return []int{1, 4}
}

// TestReportDigests is the byte-identity gate on afareport's reports:
// each report at -ssds 16 -runtime 200ms, in process, must hash to its
// line in testdata/report-digests.txt ("sha256  name"), at every width
// in digestWidths. A change that moves a report on purpose rewrites
// the file with -update, so the move shows as a changed line in the
// diff.
func TestReportDigests(t *testing.T) {
	want, err := os.ReadFile(digestFile)
	if err != nil && !*update {
		t.Fatal(err)
	}
	updated := false
	for _, p := range digestWidths() {
		t.Run("parallel="+strconv.Itoa(p), func(t *testing.T) {
			var got bytes.Buffer
			for _, r := range digestRuns() {
				args := append(strings.Fields("-ssds 16 -runtime 200ms -parallel "+strconv.Itoa(p)), strings.Fields(r.args)...)
				var stdout, stderr strings.Builder
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("%s: exit %d: %s", r.name, code, stderr.String())
				}
				fmt.Fprintf(&got, "%s  %s\n", digest(stdout.String()), r.name)
			}
			if *update && !updated {
				if err := os.WriteFile(digestFile, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				want, updated = got.Bytes(), true
				return
			}
			for _, moved := range movedReports(got.String(), string(want)) {
				t.Errorf("report %s moved; if on purpose, rerun with -update and commit %s", moved, digestFile)
			}
		})
	}
}

// movedReports names every report whose digest line differs between
// got and want, or that only one of them has.
func movedReports(got, want string) []string {
	wantSum := map[string]string{}
	for _, l := range strings.Split(strings.TrimSpace(want), "\n") {
		sum, name, _ := strings.Cut(l, "  ")
		wantSum[name] = sum
	}
	var moved []string
	for _, l := range strings.Split(strings.TrimSpace(got), "\n") {
		sum, name, _ := strings.Cut(l, "  ")
		if wantSum[name] != sum {
			moved = append(moved, name)
		}
		delete(wantSum, name)
	}
	return append(moved, slices.Sorted(maps.Keys(wantSum))...)
}
