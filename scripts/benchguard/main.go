// Command benchguard is the comparison half of scripts/bench-guard.sh:
// it decodes a baseline and a fresh BENCH_engine.json (lists of
// core.EngineBenchRow) and applies the guard's gates.
//
//	go run ./scripts/benchguard -baseline committed.json -fresh BENCH_engine.json
//
// Gates:
//
//   - events_per_sec of the first row (headline-64ssd) may drop at most
//     BENCH_GUARD_THRESHOLD percent (default 20);
//   - arrivals_per_sec of each tenant-mux-* row, the same drop gate;
//   - mean_lat_ns of each iopath-ull-* row may rise at most
//     BENCH_GUARD_LAT_THRESHOLD percent (default 1): a simulated latency,
//     deterministic, so the gate is tight and fails on a rise.
//
// A gate whose row (or field) is missing from the baseline is skipped —
// the baseline predates it; one missing from the fresh file fails. Exit
// status: 0 pass or nothing to compare, 1 regression or missing fresh
// figure, 2 usage or decode error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/core"
)

// gate is one guarded figure.
type gate struct {
	experiment string // row name; "" means the first row
	field      string // JSON field name, for messages
	label      string
	rise       bool // fail on a rise (latency) instead of a drop (rate)
	value      func(core.EngineBenchRow) float64
}

func eventsPerSec(r core.EngineBenchRow) float64   { return r.EventsPerSec }
func arrivalsPerSec(r core.EngineBenchRow) float64 { return r.ArrivalsPerSec }
func meanLatNs(r core.EngineBenchRow) float64      { return r.MeanLatNs }

var gates = []gate{
	{"", "events_per_sec", "events/sec", false, eventsPerSec},
	{"tenant-mux-10k", "arrivals_per_sec", "tenant-mux-10k arrivals/sec", false, arrivalsPerSec},
	{"tenant-mux-100k", "arrivals_per_sec", "tenant-mux-100k arrivals/sec", false, arrivalsPerSec},
	{"iopath-ull-irq", "mean_lat_ns", "iopath-ull-irq mean-lat", true, meanLatNs},
	{"iopath-ull-polling", "mean_lat_ns", "iopath-ull-polling mean-lat", true, meanLatNs},
	{"iopath-ull-passthrough", "mean_lat_ns", "iopath-ull-passthrough mean-lat", true, meanLatNs},
}

// lookup returns the gate's figure in rows, or 0 when the row or field
// is absent (WriteEngineBenchJSON omits zero optional fields).
func (g gate) lookup(rows []core.EngineBenchRow) float64 {
	if g.experiment == "" {
		if len(rows) == 0 {
			return 0
		}
		return g.value(rows[0])
	}
	for _, r := range rows {
		if r.Experiment == g.experiment {
			return g.value(r)
		}
	}
	return 0
}

// errRegressed marks a failed gate, as opposed to a missing figure.
var errRegressed = errors.New("regressed")

// guard applies every gate in order, printing one line per compared
// figure to out, and stops at the first failure. dropPct and risePct are
// the thresholds in percent.
func guard(out, errOut io.Writer, base, fresh []core.EngineBenchRow, dropPct, risePct float64) error {
	for i, g := range gates {
		b := g.lookup(base)
		if b == 0 {
			if i == 0 {
				fmt.Fprintln(errOut, "bench-guard: no committed BENCH_engine.json at HEAD; nothing to compare against")
				return nil
			}
			continue // the baseline predates this row
		}
		f := g.lookup(fresh)
		if f == 0 {
			if g.experiment == "" {
				return fmt.Errorf("bench-guard: benchmark produced no %s", g.field)
			}
			return fmt.Errorf("bench-guard: benchmark produced no %s for %s", g.field, g.experiment)
		}
		change := (f - b) / b * 100
		thr, sign, bad := dropPct, "-", -change > dropPct
		if g.rise {
			thr, sign, bad = risePct, "+", change > risePct
		}
		fmt.Fprintf(out, "bench-guard: %s %.0f -> %.0f (%+.1f%%), threshold %s%g%%\n", g.label, b, f, change, sign, thr)
		if bad {
			fmt.Fprintf(out, "bench-guard: %s regressed more than %g%%\n", g.label, thr)
			return errRegressed
		}
	}
	return nil
}

func readRows(path string) ([]core.EngineBenchRow, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, nil
	}
	var rows []core.EngineBenchRow
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return rows, nil
}

// envPercent reads a threshold in percent from the environment.
func envPercent(name string, def float64) (float64, error) {
	s := os.Getenv(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("%s=%q: want a non-negative percentage", name, s)
	}
	return v, nil
}

func main() {
	basePath := flag.String("baseline", "", "committed BENCH_engine.json")
	freshPath := flag.String("fresh", "", "freshly written BENCH_engine.json")
	flag.Parse()
	if *basePath == "" || *freshPath == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: benchguard -baseline FILE -fresh FILE")
		os.Exit(2)
	}
	drop, err := envPercent("BENCH_GUARD_THRESHOLD", 20)
	fatalIf(err)
	rise, err := envPercent("BENCH_GUARD_LAT_THRESHOLD", 1)
	fatalIf(err)
	base, err := readRows(*basePath)
	fatalIf(err)
	fresh, err := readRows(*freshPath)
	fatalIf(err)
	if err := guard(os.Stdout, os.Stderr, base, fresh, drop, rise); err != nil {
		if !errors.Is(err, errRegressed) {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(1)
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-guard:", err)
		os.Exit(2)
	}
}
