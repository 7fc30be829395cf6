package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
)

// rows builds a BENCH_engine.json row list: the headline rate, the two
// tenant-mux arrival rates and the three ULL mean latencies. A zero
// leaves that row out.
func rows(eps, mux10k, mux100k, irq, polling, passthrough float64) []core.EngineBenchRow {
	var out []core.EngineBenchRow
	if eps != 0 {
		out = append(out, core.EngineBenchRow{Experiment: "headline-64ssd", EventsPerSec: eps})
	}
	for _, r := range []struct {
		name string
		aps  float64
	}{{"tenant-mux-10k", mux10k}, {"tenant-mux-100k", mux100k}} {
		if r.aps != 0 {
			out = append(out, core.EngineBenchRow{Experiment: r.name, EventsPerSec: 1, ArrivalsPerSec: r.aps})
		}
	}
	for _, r := range []struct {
		name string
		lat  float64
	}{{"iopath-ull-irq", irq}, {"iopath-ull-polling", polling}, {"iopath-ull-passthrough", passthrough}} {
		if r.lat != 0 {
			out = append(out, core.EngineBenchRow{Experiment: r.name, MeanLatNs: r.lat})
		}
	}
	return out
}

func TestGuardGates(t *testing.T) {
	base := rows(1000, 800, 700, 40000, 17000, 14000)
	cases := []struct {
		name      string
		base      []core.EngineBenchRow
		fresh     []core.EngineBenchRow
		regressed bool
		missing   bool   // fails with a "produced no" error
		want      string // substring of the combined output or error
		compared  int    // figure lines printed
	}{
		{name: "all within", base: base, fresh: rows(900, 700, 600, 40100, 16000, 14000),
			want: "events/sec 1000 -> 900 (-10.0%), threshold -20%", compared: 6},
		{name: "faster is fine", base: base, fresh: rows(2000, 1600, 1400, 30000, 12000, 10000), compared: 6},
		{name: "events drop", base: base, fresh: rows(790, 800, 700, 40000, 17000, 14000),
			regressed: true, want: "events/sec regressed more than 20%", compared: 1},
		{name: "tenant-mux-10k drop", base: base, fresh: rows(1000, 600, 700, 40000, 17000, 14000),
			regressed: true, want: "tenant-mux-10k arrivals/sec regressed more than 20%", compared: 2},
		{name: "tenant-mux-100k drop", base: base, fresh: rows(1000, 800, 500, 40000, 17000, 14000),
			regressed: true, want: "tenant-mux-100k arrivals/sec regressed more than 20%", compared: 3},
		{name: "latency rise", base: base, fresh: rows(1000, 800, 700, 40000, 17200, 14000),
			regressed: true, want: "iopath-ull-polling mean-lat regressed more than 1%", compared: 5},
		{name: "latency rise within", base: base, fresh: rows(1000, 800, 700, 40300, 17000, 14000),
			want: "iopath-ull-irq mean-lat 40000 -> 40300 (+0.8%), threshold +1%", compared: 6},
		{name: "baseline lacks mux rows", base: rows(1000, 0, 0, 40000, 17000, 14000),
			fresh: rows(1000, 1, 1, 40000, 17000, 14000), compared: 4},
		{name: "baseline lacks iopath rows", base: rows(1000, 800, 700, 0, 0, 0),
			fresh: rows(1000, 800, 700, 0, 0, 0), compared: 3},
		{name: "no baseline", base: nil, fresh: rows(1, 1, 1, 1e9, 1e9, 1e9),
			want: "nothing to compare against", compared: 0},
		{name: "fresh lacks events", base: base, fresh: nil,
			missing: true, want: "benchmark produced no events_per_sec", compared: 0},
		{name: "fresh lacks a mux row", base: base, fresh: rows(1000, 0, 700, 40000, 17000, 14000),
			missing: true, want: "benchmark produced no arrivals_per_sec for tenant-mux-10k", compared: 1},
		{name: "fresh lacks an iopath row", base: base, fresh: rows(1000, 800, 700, 40000, 0, 14000),
			missing: true, want: "benchmark produced no mean_lat_ns for iopath-ull-polling", compared: 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			err := guard(&out, &errOut, c.base, c.fresh, 20, 1)
			switch {
			case c.regressed && !errors.Is(err, errRegressed):
				t.Fatalf("err = %v, want a regression", err)
			case c.missing && (err == nil || errors.Is(err, errRegressed)):
				t.Fatalf("err = %v, want a missing-figure error", err)
			case !c.regressed && !c.missing && err != nil:
				t.Fatalf("err = %v, want pass", err)
			}
			all := out.String() + errOut.String()
			if err != nil {
				all += err.Error()
			}
			if !strings.Contains(all, c.want) {
				t.Errorf("output %q lacks %q", all, c.want)
			}
			if n := strings.Count(out.String(), "), threshold "); n != c.compared {
				t.Errorf("compared %d figures, want %d:\n%s", n, c.compared, out.String())
			}
		})
	}
}
