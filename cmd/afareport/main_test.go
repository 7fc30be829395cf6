package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestResolveRejectsBadOptions pins the flag values that used to panic
// inside a run, or were rejected only after earlier reports ran: each is
// now a one-line error before anything starts.
func TestResolveRejectsBadOptions(t *testing.T) {
	const rt = 20 * sim.Millisecond
	cases := []struct {
		name     string
		ssds     int
		runtime  sim.Duration
		seeds    int
		solo     int
		parallel int
		all      bool
		figs     []int
		table    int
		headline bool
		format   string // "" = text
		ablate   string
		wantErr  string // "" = accepted
		wantN    int    // entries selected when accepted
	}{
		{name: "negative ssds", ssds: -2, runtime: rt, seeds: 1, wantErr: "-ssds must be >= 1, got -2"},
		{name: "zero ssds", ssds: 0, runtime: rt, seeds: 1, wantErr: "-ssds must be >= 1, got 0"},
		{name: "negative runtime", ssds: 16, runtime: -5 * sim.Millisecond, seeds: 1,
			wantErr: "-runtime must be > 0, got -5ms"},
		{name: "zero seeds", ssds: 16, runtime: rt, seeds: 0, wantErr: "-seeds must be >= 1, got 0"},
		{name: "unknown ablation", ssds: 16, runtime: rt, seeds: 1, ablate: "poll",
			wantErr: `unknown ablation "poll" (have fw, used,`},
		{name: "faults below stripe", ssds: 4, runtime: rt, seeds: 1, ablate: "faults",
			wantErr: `ablation "faults" needs -ssds >= 9, got 4`},
		{name: "hedging below stripe", ssds: 8, runtime: rt, seeds: 1, ablate: "hedging",
			wantErr: `ablation "hedging" needs -ssds >= 9, got 8`},
		{name: "iopath on one SSD", ssds: 1, runtime: rt, seeds: 1, ablate: "iopath",
			wantErr: `ablation "iopath" needs -ssds >= 2, got 1`},
		{name: "negative solo runs", ssds: 8, runtime: rt, seeds: 1, solo: -1, figs: []int{13},
			wantErr: "-solo-runs must be >= 0, got -1"},
		{name: "negative parallel", ssds: 16, runtime: rt, seeds: 1, parallel: -1, figs: []int{6},
			wantErr: "-parallel must be >= 0, got -1"},
		{name: "parallel 0 is one per CPU", ssds: 16, runtime: rt, seeds: 1, figs: []int{6}},
		{name: "fig 10 on one SSD", ssds: 1, runtime: rt, seeds: 1, figs: []int{6, 10},
			wantErr: "-fig 10 needs -ssds >= 2, got 1"},
		{name: "fig 10 on two SSDs", ssds: 2, runtime: rt, seeds: 1, figs: []int{10}},
		{name: "all below stripe", ssds: 4, runtime: rt, seeds: 1, all: true, wantErr: "needs -ssds >= 9"},
		{name: "faults at stripe+parity", ssds: 9, runtime: rt, seeds: 1, ablate: "faults", wantN: 1},
		{name: "tail on a small fleet", ssds: 9, runtime: rt, seeds: 1, ablate: "tail", wantN: 1},
		{name: "all", ssds: 16, runtime: rt, seeds: 3, all: true, wantN: len(ablations)},
		{name: "no ablation", ssds: 16, runtime: rt, seeds: 1},
		{name: "xml format", ssds: 16, runtime: rt, seeds: 1, figs: []int{6}, format: "xml",
			wantErr: `unknown -format "xml" (have text, json, csv)`},
		{name: "misspelt json", ssds: 16, runtime: rt, seeds: 1, format: "jsno",
			wantErr: `unknown -format "jsno"`},
		{name: "csv format", ssds: 16, runtime: rt, seeds: 1, figs: []int{10}, format: "csv"},
		{name: "unknown figure after a valid one", ssds: 16, runtime: rt, seeds: 1, figs: []int{6, 99},
			wantErr: "unknown figure 99 (have 6-14)"},
		{name: "figure below range", ssds: 16, runtime: rt, seeds: 1, figs: []int{5},
			wantErr: "unknown figure 5 (have 6-14)"},
		{name: "figure 14", ssds: 16, runtime: rt, seeds: 1, figs: []int{14}},
		{name: "table 3", ssds: 16, runtime: rt, seeds: 1, table: 3,
			wantErr: "unknown table 3 (have 1 and 2)"},
		{name: "table 3 after a valid figure", ssds: 16, runtime: rt, seeds: 1, figs: []int{6}, table: 3,
			wantErr: "unknown table 3 (have 1 and 2)"},
		{name: "negative table", ssds: 16, runtime: rt, seeds: 1, table: -1,
			wantErr: "unknown table -1 (have 1 and 2)"},
		{name: "table 2", ssds: 16, runtime: rt, seeds: 1, figs: []int{6}, table: 2},
		{name: "json figures", ssds: 16, runtime: rt, seeds: 1, figs: []int{6, 12, 13}, format: "json"},
		{name: "csv figures", ssds: 16, runtime: rt, seeds: 1, figs: []int{10, 12}, format: "csv"},
		{name: "json with table", ssds: 16, runtime: rt, seeds: 1, figs: []int{6}, table: 2, format: "json",
			wantErr: "-format json covers figures only"},
		{name: "csv with headline", ssds: 16, runtime: rt, seeds: 1, headline: true, format: "csv",
			wantErr: "-format csv covers figures only"},
		{name: "csv with ablation", ssds: 16, runtime: rt, seeds: 1, ablate: "fw", format: "csv",
			wantErr: "-format csv covers figures only"},
		{name: "json with all", ssds: 16, runtime: rt, seeds: 1, all: true, format: "json",
			wantErr: "-format json covers figures only"},
		{name: "json fig 10", ssds: 16, runtime: rt, seeds: 1, figs: []int{6, 10}, format: "json",
			wantErr: "-fig 10 has no json form"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := core.ExpOptions{Runtime: tc.runtime, NumSSDs: tc.ssds, SoloRuns: tc.solo, Parallel: tc.parallel}
			format := tc.format
			if format == "" {
				format = "text"
			}
			got, err := resolve(o, tc.seeds, tc.all, tc.figs, tc.table, tc.headline, format, tc.ablate)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				if len(got) != tc.wantN {
					t.Fatalf("selected %d entries, want %d", len(got), tc.wantN)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted, want error containing %q", tc.wantErr)
			}
			if msg := err.Error(); !strings.Contains(msg, tc.wantErr) || strings.Contains(msg, "\n") {
				t.Fatalf("error %q, want one line containing %q", msg, tc.wantErr)
			}
		})
	}
}

// TestEveryAblationRuns drives each registry entry end to end at the
// smallest fleet every entry accepts: none may panic or write nothing.
func TestEveryAblationRuns(t *testing.T) {
	o := core.ExpOptions{Runtime: 20 * sim.Millisecond, Seed: 2018, NumSSDs: raidSSDs, SoloRuns: 1, Parallel: 2}
	for _, a := range ablations {
		t.Run(a.name, func(t *testing.T) {
			var buf bytes.Buffer
			a.run(&buf, o)
			if buf.Len() == 0 {
				t.Fatal("wrote nothing")
			}
		})
	}
}
