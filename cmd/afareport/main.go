// Command afareport regenerates the paper's figures and tables as text
// reports from the simulated all-flash-array testbed.
//
// Usage:
//
//	afareport -fig 6          # latency distributions, default config (Fig 6)
//	afareport -fig 7..9,11    # the other single-config figures
//	afareport -fig 10         # SMART spike scatter summary
//	afareport -fig 12         # four-config comparison
//	afareport -fig 13         # CPU:SSD balance study (also covers Fig 14)
//	afareport -table 1        # Table I (device spec)
//	afareport -table 2        # Table II (setup matrix)
//	afareport -headline       # the abstract's ×8 / ×400 claim
//	afareport -ablate fw      # firmware variants (standard/nosmart/incremental)
//	afareport -ablate used    # FOB vs used (non-FOB) state, the future-work study
//	afareport -ablate future  # §VI prototypes: auto-isolating scheduler, affine balancer
//	afareport -ablate coalesce# NVMe interrupt coalescing vs the interrupt storm
//	afareport -ablate faults  # clean vs faulted vs faulted+tolerant (timeouts, degraded reads, hedging)
//	afareport -ablate recovery# drive drop-out/recovery time series under tolerance
//	afareport -ablate writes  # RMW write path: clean / degraded / +rebuild / +tolerance (hedged parity writes)
//	afareport -ablate hedging # hedging policy: static quantile vs per-drive adaptive vs adaptive+budgets
//	afareport -ablate load    # open-loop offered-load ladder: the load-vs-tail knee, with/without QoS admission
//	afareport -ablate iopath  # low-latency I/O path: {irq, coalesced, polling, passthrough} × {flash, ull}
//	afareport -all            # everything
//
// -runtime scales fidelity: the default 2 s is quick; pass 120s for the
// paper's full-length runs (no time compression of rare events).
//
// -parallel N fans the independent runs inside one experiment (configs,
// Table II geometries, sweep seeds) across N workers; the default 0
// means one worker per CPU. Reports are byte-identical at every width —
// each run owns its engine and rng streams and results merge in
// submission order (see DESIGN.md §7) — so -parallel only changes wall
// time, never data.
//
// -seeds N reruns the single-configuration figures (6-9 and 11) at N
// derived seeds (seed, seed+1, …) in parallel and appends a pooled row
// merging all N fleets; sweep member i reproduces standalone with
// -seed <seed+i>. The writes, hedging, load and iopath ablations append
// the same sweep of one arm of their table. -seeds N with no selected
// report that sweeps is a usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/nvme"
	"repro/internal/runner"
	"repro/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run writes the reports args select to stdout and returns the exit
// code: 2 for a usage error, reported on stderr before anything runs,
// 1 if a report fails to render, 0 otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("afareport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig      = fs.String("fig", "", "figure number to regenerate (6-14)")
		table    = fs.Int("table", 0, "table number to regenerate (1 or 2)")
		headline = fs.Bool("headline", false, "check the abstract's ×8/×400 claim")
		ablate   = fs.String("ablate", "", "ablation: "+strings.Join(ablationNames(), " | "))
		all      = fs.Bool("all", false, "regenerate everything")
		runtime  = fs.Duration("runtime", 2*time.Second, "simulated runtime per FIO instance (paper: 120s)")
		seed     = fs.Uint64("seed", 2018, "experiment seed")
		ssds     = fs.Int("ssds", 64, "number of SSDs")
		solo     = fs.Int("solo-runs", 8, "runs merged for the Fig 13(d) single-thread row (paper: 64)")
		format   = fs.String("format", "text", "output format for figure data: text | json | csv (json writes one document per figure, back to back)")
		parallel = fs.Int("parallel", 0, "worker pool width for independent runs; 0 = one per CPU (results are byte-identical at any width)")
		seeds    = fs.Int("seeds", 1, "seed-sweep width for single-config figures 6-9 and 11 and the writes, hedging, load and iopath ablations (seed, seed+1, ...; appends a pooled row)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	o := core.ExpOptions{
		Runtime:  sim.Duration(runtime.Nanoseconds()),
		Seed:     *seed,
		NumSSDs:  *ssds,
		SoloRuns: *solo,
		Parallel: *parallel,
	}
	var figs []int
	if *fig != "" {
		for _, part := range strings.Split(*fig, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fmt.Fprintf(stderr, "bad figure %q\n", part)
				return 2
			}
			figs = append(figs, n)
		}
	}
	selected, err := resolve(o, *seeds, *all, figs, *table, *headline, *format, *ablate)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if len(selected) == 0 {
		fs.Usage()
		return 2
	}
	s := settings{o: o, format: *format, seeds: *seeds, parallel: *parallel}
	if s.parallel <= 0 {
		s.parallel = runner.DefaultParallel()
	}
	for _, r := range selected {
		if err := r.emit(stdout, stderr, s); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}

// resolve rejects option values the simulator would otherwise panic on
// deep inside a run, turn into an empty report, ignore, or only reject
// after earlier reports ran, and maps the selection flags to registry
// entries: every entry for -all, otherwise the -fig entries in the
// order given, then the -table, -headline and -ablate ones. figs are
// the -fig numbers, table the -table number (0 for none).
func resolve(o core.ExpOptions, seeds int, all bool, figs []int, table int, headline bool, format, name string) ([]report, error) {
	switch {
	case seeds < 1:
		return nil, fmt.Errorf("-seeds must be >= 1, got %d", seeds)
	case o.NumSSDs < 1:
		return nil, fmt.Errorf("-ssds must be >= 1, got %d", o.NumSSDs)
	case o.Runtime <= 0:
		return nil, fmt.Errorf("-runtime must be > 0, got %v", time.Duration(o.Runtime))
	case o.SoloRuns < 1:
		return nil, fmt.Errorf("-solo-runs must be >= 1, got %d", o.SoloRuns)
	case o.Parallel < 0:
		return nil, fmt.Errorf("-parallel must be >= 0, got %d", o.Parallel)
	case format != "text" && format != "json" && format != "csv":
		return nil, fmt.Errorf("unknown -format %q (have text, json, csv)", format)
	case format != "text" && (table != 0 || headline || name != "" || all):
		return nil, fmt.Errorf("-format %s covers figures only, not -table, -headline, -ablate or -all", format)
	case format == "json" && slices.Contains(figs, 10):
		return nil, fmt.Errorf("-fig 10 has no json form (have text, csv)")
	}
	var selected []report
	for _, n := range figs {
		key := n
		if n == 14 {
			key = 13 // Fig 14 reads per core what Fig 13 reports per SSD
		}
		r, ok := lookup("fig", strconv.Itoa(key))
		if !ok {
			return nil, fmt.Errorf("unknown figure %d (have 6-14)", n)
		}
		selected = append(selected, r)
	}
	if table != 0 {
		r, ok := lookup("table", strconv.Itoa(table))
		if !ok {
			return nil, fmt.Errorf("unknown table %d (have 1 and 2)", table)
		}
		selected = append(selected, r)
	}
	if headline {
		r, _ := lookup("headline", "")
		selected = append(selected, r)
	}
	if name != "" {
		r, ok := lookup("ablate", name)
		if !ok {
			return nil, fmt.Errorf("unknown ablation %q (have %s)", name, strings.Join(ablationNames(), ", "))
		}
		selected = append(selected, r)
	}
	if all {
		selected = reports
	}
	for _, r := range selected {
		if o.NumSSDs < r.minSSDs {
			return nil, fmt.Errorf("%s needs -ssds >= %d, got %d", r, r.minSSDs, o.NumSSDs)
		}
	}
	if seeds > 1 && len(selected) > 0 && !slices.ContainsFunc(selected, report.sweeps) {
		return nil, fmt.Errorf("-seeds %d would be ignored: only figures 6-9 and 11 and -ablate writes, hedging, load and iopath sweep", seeds)
	}
	return selected, nil
}

// settings are the resolved flag values a report reads.
type settings struct {
	o      core.ExpOptions
	format string // text | json | csv; figures only
	seeds  int    // -seeds: the sweep width
	// parallel is the resolved worker-pool width, for the wall-clock
	// banner.
	parallel int
}

// report is one registry entry: a figure, a table, the headline or an
// -ablate study.
type report struct {
	// flag and name select the entry: -fig 6 is {"fig", "6"}, -ablate fw
	// is {"ablate", "fw"}, -headline is {"headline", ""}.
	flag, name string
	banner     string
	run        func(w io.Writer, s settings) error
	// dist, set instead of run, is a single-configuration figure: with
	// -seeds N it reports the N-seed sweep and its pooled merge instead.
	dist func(core.ExpOptions) core.Distribution
	// sweep, when set, names an arm of the ablation's table: with -seeds
	// N the report appends that arm's N-seed sweep and pooled merge under
	// caption.
	sweep, caption string
	// minSSDs is the smallest fleet the entry runs on.
	minSSDs int
}

// sweeps reports whether -seeds changes the entry's report.
func (r report) sweeps() bool { return r.dist != nil || r.sweep != "" }

// String names the entry the way its errors do.
func (r report) String() string {
	if r.flag == "ablate" {
		return fmt.Sprintf("ablation %q", r.name)
	}
	return "-" + r.flag + " " + r.name
}

// emit prints the entry's banner and report, its seed sweep when -seeds
// asks for one, and, for everything but the tables, the wall-clock
// cost. Wall time is the one number -parallel is allowed to change;
// everything above that line is seed-determined. In the json and csv
// formats the banner and the wall-clock line go to stderr, so w carries
// nothing but the data.
func (r report) emit(w, stderr io.Writer, s settings) error {
	t0 := time.Now() //afalint:allow wallclock -- wall-clock cost banner, not simulated time
	note := w
	if s.format != "text" {
		note = stderr
	}
	fmt.Fprintf(note, "\n=== %s ===\n", r.banner)
	run := r.run
	if r.dist != nil {
		run = figure(r.dist)
	}
	if err := run(w, s); err != nil {
		return err
	}
	if s.seeds > 1 && r.sweep != "" {
		fmt.Fprintf(w, "\n%s, %d-seed sweep (pooled last):\n", r.caption, s.seeds)
		sweep := core.SweepArm(s.o, s.seeds, r.name, r.sweep)
		core.WriteComparisonTable(w, append(sweep, core.MergeSweep("pooled", sweep)))
	}
	if r.flag != "table" {
		fmt.Fprintf(note, "[%v wall, parallel=%d]\n", time.Since(t0).Round(time.Millisecond), s.parallel) //afalint:allow wallclock -- wall-clock cost banner
	}
	return nil
}

// raidSSDs is the smallest fleet the RAID entries run on: the data
// stripe plus its parity member.
const raidSSDs = core.FaultStripeWidth + 1

// reports is the ordered registry: -all runs every entry in this order,
// and the -ablate help and the unknown-ablation error list the -ablate
// names.
var reports = []report{
	{flag: "fig", name: "6", banner: "Fig 6: latency distributions, default configuration",
		dist: core.RunFig6},
	{flag: "fig", name: "7", banner: "Fig 7: + FIO at SCHED_FIFO 99 (chrt)",
		dist: core.RunFig7},
	{flag: "fig", name: "8", banner: "Fig 8: + CPU isolation boot options",
		dist: core.RunFig8},
	{flag: "fig", name: "9", banner: "Fig 9: + IRQ affinity pinned (identical setup to Fig 13(a))",
		dist: core.RunFig9},
	{flag: "fig", name: "10", banner: "Fig 10: latency scatter, 32 SSDs, periodic SMART spikes",
		run: writeFig10,
		// Fig 10 logs the first half of the fleet: one SSD logs none.
		minSSDs: 2},
	{flag: "fig", name: "11", banner: "Fig 11: experimental firmware (SMART disabled)",
		dist: core.RunFig11},
	{flag: "fig", name: "12", banner: "Fig 12: comparison of four system configurations",
		run: figures(core.RunFig12)},
	{flag: "fig", name: "13", banner: "Fig 13/14: latency vs number of SSDs per physical CPU core",
		run: figures(core.RunFig13)},
	{flag: "table", name: "1", banner: "Table I: NVMe SSD specification", run: writeTableI},
	{flag: "table", name: "2", banner: "Table II: varying number of SSDs / CPU core",
		run: func(w io.Writer, _ settings) error { core.WriteTableII(w); return nil }},
	{flag: "headline", banner: "Headline: mean/σ of max latency, default vs tuned kernel",
		run: experiment(core.RunHeadline, core.WriteHeadline)},
	{flag: "ablate", name: "fw", banner: "Ablation: firmware housekeeping variants (tuned kernel)",
		run: experiment(core.RunFirmwareAblation, core.WriteComparisonTable)},
	{flag: "ablate", name: "used", banner: "Extension: FOB vs used (non-FOB) state, random writes",
		run: experiment(core.RunUsedStateStudy, core.WriteComparisonTable)},
	{flag: "ablate", name: "future", banner: "Section VI prototypes: how much manual tuning do better algorithms recover?",
		run: experiment(core.RunFutureWorkAblation, core.WriteComparisonTable)},
	{flag: "ablate", name: "coalesce", banner: "Extension: NVMe interrupt coalescing (QD8)",
		run: experiment(core.RunCoalescingAblation, core.WriteCoalescingAblation)},
	{flag: "ablate", name: "tail", banner: "Section I motivation: striped-client tail amplification vs stripe width",
		run: writeTailAtScale},
	{flag: "ablate", name: "pts", banner: "SNIA PTS-E latency test: purge → rounds → steady state", run: writePTS},
	{flag: "ablate", name: "faults", banner: "Extension: degraded mode — clean vs faulted vs faulted+tolerant stripe",
		run: experiment(core.RunFaultAblation, core.WriteFaultAblation), minSSDs: raidSSDs},
	{flag: "ablate", name: "recovery", banner: "Extension: drive drop-out and recovery under the tolerance stack",
		run: experiment(core.RunRecoverySeries, core.WriteRecoverySeries), minSSDs: raidSSDs},
	{flag: "ablate", name: "writes", banner: "Extension: RMW write path — clean / degraded / +rebuild / +tolerance",
		run: experiment(core.RunWriteAblation, core.WriteWriteAblation), minSSDs: raidSSDs,
		sweep: "tolerant", caption: "tolerant-arm write ladder"},
	{flag: "ablate", name: "hedging", banner: "Extension: hedging policy — static quantile vs per-drive adaptive vs adaptive+budgets",
		run: experiment(core.RunHedgingAblation, core.WriteHedgingAblation), minSSDs: raidSSDs,
		sweep: "adaptive+budgets", caption: "adaptive+budgets read ladder"},
	{flag: "ablate", name: "load", banner: "Extension: open-loop offered-load ladder — the load-vs-tail knee, with/without QoS admission",
		run:   experiment(core.RunLoadAblation, core.WriteLoadAblation),
		sweep: "load-admit-110", caption: "admission-arm per-class ladders at 110% load"},
	{flag: "ablate", name: "iopath", banner: "Extension: low-latency I/O path — {irq, coalesced, polling, passthrough} × {flash, ull}",
		run: experiment(core.RunIOPathAblation, core.WriteIOPathAblation),
		// The grid's transient-error probe sits on SSD 1.
		minSSDs: 2,
		sweep:   "ull/passthrough", caption: "ull passthrough per-SSD ladders"},
}

// lookup finds the entry flag and name select.
func lookup(flag, name string) (report, bool) {
	for _, r := range reports {
		if r.flag == flag && r.name == name {
			return r, true
		}
	}
	return report{}, false
}

// ablationNames lists the -ablate entries' names in registry order.
func ablationNames() []string {
	var names []string
	for _, r := range reports {
		if r.flag == "ablate" {
			names = append(names, r.name)
		}
	}
	return names
}

// experiment pairs an experiment with its text renderer as a registry
// run func.
func experiment[R any](run func(core.ExpOptions) R, write func(io.Writer, R)) func(io.Writer, settings) error {
	return func(w io.Writer, s settings) error {
		write(w, run(s.o))
		return nil
	}
}

// figure is a single-configuration figure's run func. With -seeds N it
// reports the N-seed sweep instead, plus a "pooled" row merging all
// fleets, so quick runs can borrow statistical depth from breadth
// instead of -runtime.
func figure(run func(core.ExpOptions) core.Distribution) func(io.Writer, settings) error {
	return func(w io.Writer, s settings) error {
		if s.seeds <= 1 {
			return writeDistribution(w, s.format, run(s.o))
		}
		sweep := core.RunSeedSweep(s.o, s.seeds, run)
		return writeDistributions(w, s.format, append(sweep, core.MergeSweep("pooled", sweep)))
	}
}

// figures is a multi-configuration figure's run func.
func figures(run func(core.ExpOptions) []core.Distribution) func(io.Writer, settings) error {
	return func(w io.Writer, s settings) error {
		return writeDistributions(w, s.format, run(s.o))
	}
}

// writeDistributions renders a multi-distribution figure in the chosen
// format: a JSON array, one CSV per distribution, or the side-by-side
// comparison table.
func writeDistributions(w io.Writer, format string, ds []core.Distribution) error {
	switch format {
	case "json":
		return core.WriteDistributionsJSON(w, ds)
	case "csv":
		for _, d := range ds {
			if err := core.WriteDistributionCSV(w, d); err != nil {
				return err
			}
		}
		return nil
	}
	core.WriteComparisonTable(w, ds)
	return nil
}

// writeDistribution renders one figure's distribution in the chosen
// format.
func writeDistribution(w io.Writer, format string, d core.Distribution) error {
	switch format {
	case "json":
		return core.WriteDistributionJSON(w, d)
	case "csv":
		return core.WriteDistributionCSV(w, d)
	}
	core.WriteDistributionTable(w, d)
	return nil
}

// writeFig10 reports the SMART spike scatter: its summary, or with
// -format csv every logged point.
func writeFig10(w io.Writer, s settings) error {
	r := core.RunFig10(s.o)
	if s.format == "csv" {
		return core.WriteFig10CSV(w, r)
	}
	core.WriteFig10Summary(w, r)
	return nil
}

// writeTableI prints the device specification of Table I.
func writeTableI(w io.Writer, _ settings) error {
	spec := nvme.SpecTableI()
	fmt.Fprintf(w, "%-30s %s\n", "Host Interface", spec.HostInterface)
	fmt.Fprintf(w, "%-30s %d\n", "Capacity (GB)", spec.CapacityGB)
	fmt.Fprintf(w, "%-30s %d / %d\n", "Random Read/Write (IOPS)", spec.RandReadIOPS, spec.RandWriteIOPS)
	fmt.Fprintf(w, "%-30s %d / %d\n", "Sequential Read/Write (MB/s)", spec.SeqReadMBps, spec.SeqWriteMBps)
	fmt.Fprintf(w, "%-30s %s\n", "NAND Type", spec.NANDType)
	return nil
}

// writeTailAtScale reports striped-client tail amplification at the
// stripe widths from {1, 4, 16, 32} that fit the fleet.
func writeTailAtScale(w io.Writer, s settings) error {
	var widths []int
	for _, width := range []int{1, 4, 16, 32} {
		if width <= s.o.NumSSDs {
			widths = append(widths, width)
		}
	}
	for _, cfg := range []core.Config{core.Default(), core.ExpFirmware()} {
		fmt.Fprintf(w, "-- %s --\n", cfg.Name)
		perSSD, clients := core.RunTailAtScale(cfg, widths, s.o)
		for i, c := range clients {
			fmt.Fprintf(w, "width %2d: avg %8.1fµs  p99 %8.1fµs  max %8.1fµs  (p99 ×%.2f a single SSD)\n",
				widths[i], c.Ladder.Avg/1e3, float64(c.Ladder.P[0])/1e3,
				float64(c.Ladder.Max)/1e3, core.P99Amplification(c.Ladder, perSSD.Pooled))
		}
	}
	return nil
}

// writePTS reports the PTS-E latency test's rounds and steady-state
// verdict.
func writePTS(w io.Writer, s settings) error {
	rep := core.RunPTSLatencyTest(core.ExpFirmware(), s.o, 200*sim.Millisecond, 25)
	for i, r := range rep.Rounds {
		fmt.Fprintf(w, "round %2d: fleet avg %.2fµs\n", i+1, r.AvgLatencyNs/1e3)
	}
	if rep.Result.Steady {
		fmt.Fprintf(w, "steady state at round %d (excursion %.1f%%, slope %.1f%%)\n",
			rep.Result.SteadyAt, rep.Result.Excursion*100, rep.Result.Slope*100)
	} else {
		fmt.Fprintln(w, "steady state NOT reached")
	}
	return nil
}
