package main

import (
	"bytes"
	"encoding/json"
	"io"
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
		solo     *int // nil = the flag's default, 8
		parallel int
		all      bool
		figs     []int
		table    int
		headline bool
		format   string // "" = text
		ablate   string
		wantErr  string // "" = accepted
		wantN    int    // reports selected when accepted
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
		{name: "negative solo runs", ssds: 8, runtime: rt, seeds: 1, solo: intp(-1), figs: []int{13},
			wantErr: "-solo-runs must be >= 1, got -1"},
		{name: "zero solo runs", ssds: 8, runtime: rt, seeds: 1, solo: intp(0), figs: []int{13},
			wantErr: "-solo-runs must be >= 1, got 0"},
		{name: "seeds on a figure that does not sweep", ssds: 16, runtime: rt, seeds: 3, figs: []int{12},
			wantErr: "-seeds 3 would be ignored"},
		{name: "seeds on an ablation that does not sweep", ssds: 16, runtime: rt, seeds: 3, ablate: "fw",
			wantErr: "-seeds 3 would be ignored"},
		{name: "seeds on tables and the headline", ssds: 16, runtime: rt, seeds: 2, table: 2, headline: true,
			wantErr: "-seeds 2 would be ignored"},
		{name: "seeds on a sweeping figure", ssds: 16, runtime: rt, seeds: 3, figs: []int{12, 6},
			wantErr: "-seeds 3 would be ignored by -fig 12"},
		{name: "seeds on a mix led by a sweeping figure", ssds: 16, runtime: rt, seeds: 2, figs: []int{6, 12},
			wantErr: "-seeds 2 would be ignored by -fig 12"},
		{name: "seeds on sweeping figures", ssds: 16, runtime: rt, seeds: 2, figs: []int{6, 7}, wantN: 2},
		{name: "seeds on a sweeping ablation", ssds: 16, runtime: rt, seeds: 3, ablate: "load", wantN: 1},
		{name: "negative parallel", ssds: 16, runtime: rt, seeds: 1, parallel: -1, figs: []int{6},
			wantErr: "-parallel must be >= 0, got -1"},
		{name: "parallel 0 is one per CPU", ssds: 16, runtime: rt, seeds: 1, figs: []int{6}, wantN: 1},
		{name: "fig 10 on one SSD", ssds: 1, runtime: rt, seeds: 1, figs: []int{6, 10},
			wantErr: "-fig 10 needs -ssds >= 2, got 1"},
		{name: "fig 10 on two SSDs", ssds: 2, runtime: rt, seeds: 1, figs: []int{10}, wantN: 1},
		{name: "all below stripe", ssds: 4, runtime: rt, seeds: 1, all: true, wantErr: "needs -ssds >= 9"},
		{name: "faults at stripe+parity", ssds: 9, runtime: rt, seeds: 1, ablate: "faults", wantN: 1},
		{name: "tail on a small fleet", ssds: 9, runtime: rt, seeds: 1, ablate: "tail", wantN: 1},
		{name: "all", ssds: 16, runtime: rt, seeds: 3, all: true, wantN: len(reports)},
		{name: "no ablation", ssds: 16, runtime: rt, seeds: 1},
		{name: "xml format", ssds: 16, runtime: rt, seeds: 1, figs: []int{6}, format: "xml",
			wantErr: `unknown -format "xml" (have text, json, csv)`},
		{name: "misspelt json", ssds: 16, runtime: rt, seeds: 1, format: "jsno",
			wantErr: `unknown -format "jsno"`},
		{name: "csv format", ssds: 16, runtime: rt, seeds: 1, figs: []int{10}, format: "csv", wantN: 1},
		{name: "unknown figure after a valid one", ssds: 16, runtime: rt, seeds: 1, figs: []int{6, 99},
			wantErr: "unknown figure 99 (have 6-14)"},
		{name: "figure below range", ssds: 16, runtime: rt, seeds: 1, figs: []int{5},
			wantErr: "unknown figure 5 (have 6-14)"},
		{name: "figure 14", ssds: 16, runtime: rt, seeds: 1, figs: []int{14}, wantN: 1},
		{name: "table 3", ssds: 16, runtime: rt, seeds: 1, table: 3,
			wantErr: "unknown table 3 (have 1 and 2)"},
		{name: "table 3 after a valid figure", ssds: 16, runtime: rt, seeds: 1, figs: []int{6}, table: 3,
			wantErr: "unknown table 3 (have 1 and 2)"},
		{name: "negative table", ssds: 16, runtime: rt, seeds: 1, table: -1,
			wantErr: "unknown table -1 (have 1 and 2)"},
		{name: "table 2", ssds: 16, runtime: rt, seeds: 1, figs: []int{6}, table: 2, wantN: 2},
		{name: "json figures", ssds: 16, runtime: rt, seeds: 1, figs: []int{6, 12, 13}, format: "json", wantN: 3},
		{name: "csv figures", ssds: 16, runtime: rt, seeds: 1, figs: []int{10, 12}, format: "csv", wantN: 2},
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
			o := core.ExpOptions{Runtime: tc.runtime, NumSSDs: tc.ssds, SoloRuns: 8, Parallel: tc.parallel}
			if tc.solo != nil {
				o.SoloRuns = *tc.solo
			}
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
					t.Fatalf("selected %d reports, want %d", len(got), tc.wantN)
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

func intp(n int) *int { return &n }

// TestRunRejectsStrayArgument: flag parsing stops at the first
// positional argument, so a stray one would hide every flag after it.
// run refuses it with exit 2 and one line on stderr before anything
// runs.
func TestRunRejectsStrayArgument(t *testing.T) {
	for _, args := range []string{"-table 1 extra -ssds 2", "extra -table 1"} {
		var stdout, stderr strings.Builder
		if code := run(strings.Fields(args), &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: stdout %q, want nothing", args, stdout.String())
		}
		if msg := stderr.String(); msg != "unexpected argument \"extra\"\n" {
			t.Errorf("%q: stderr %q, want one line naming \"extra\"", args, msg)
		}
	}
}

// TestMachineFormatsKeepStdoutPure: with -format json or csv the
// banner and the wall-clock line go to stderr, so stdout is the data
// alone and a JSON decoder reads -fig 6 back as one distribution.
func TestMachineFormatsKeepStdoutPure(t *testing.T) {
	for _, format := range []string{"json", "csv"} {
		var stdout, stderr strings.Builder
		args := strings.Fields("-fig 6 -ssds 4 -runtime 20ms -parallel 1 -format " + format)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d: %s", format, code, stderr.String())
		}
		if out := stdout.String(); strings.Contains(out, "===") || strings.Contains(out, " wall, ") {
			t.Errorf("%s: stdout carries a banner:\n%s", format, out)
		}
		if msg := stderr.String(); !strings.Contains(msg, "=== Fig 6:") || !strings.Contains(msg, " wall, parallel=1]") {
			t.Errorf("%s: stderr %q, want the banner and the wall-clock line", format, msg)
		}
		if format != "json" {
			continue
		}
		if !json.Valid([]byte(stdout.String())) {
			t.Fatalf("json: stdout is not one JSON document:\n%s", stdout.String())
		}
		d, err := core.ReadDistributionJSON(strings.NewReader(stdout.String()))
		if err != nil {
			t.Fatalf("json: decoding stdout: %v", err)
		}
		if d.Config != "default" || len(d.Ladders) != 4 {
			t.Errorf("json: decoded config %q with %d ladders, want default with 4", d.Config, len(d.Ladders))
		}
	}
}

// TestMultiFigureJSONIsAStream pins that -format json with several
// figures writes one JSON document per figure, back to back: stdout is
// a stream that a decoder loop reads, not one document.
func TestMultiFigureJSONIsAStream(t *testing.T) {
	var stdout, stderr strings.Builder
	args := strings.Fields("-fig 6,12 -ssds 4 -runtime 20ms -parallel 1 -format json")
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	dec := json.NewDecoder(strings.NewReader(stdout.String()))
	docs := 0
	for {
		var doc json.RawMessage
		if err := dec.Decode(&doc); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("document %d: %v", docs+1, err)
		}
		docs++
	}
	if docs != 2 {
		t.Fatalf("stdout holds %d JSON documents, want 2 (one per figure)", docs)
	}
}

// TestEveryAblationRuns drives each registry entry end to end at the
// smallest fleet every entry accepts, with a two-seed sweep where the
// entry has one: none may panic or write nothing, and every sweep must
// name an arm of its ablation's table.
func TestEveryAblationRuns(t *testing.T) {
	o := core.ExpOptions{Runtime: 20 * sim.Millisecond, Seed: 2018, NumSSDs: raidSSDs, SoloRuns: 1, Parallel: 2}
	for _, r := range reports {
		if r.flag != "ablate" {
			continue
		}
		t.Run(r.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := r.emit(&buf, io.Discard, settings{o: o, format: "text", seeds: 2}); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Fatal("wrote nothing")
			}
		})
	}
}
