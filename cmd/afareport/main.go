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
// -seed <seed+i>.
package main

import (
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
	var (
		fig      = flag.String("fig", "", "figure number to regenerate (6-14)")
		table    = flag.Int("table", 0, "table number to regenerate (1 or 2)")
		headline = flag.Bool("headline", false, "check the abstract's ×8/×400 claim")
		ablate   = flag.String("ablate", "", "ablation: "+strings.Join(ablationNames(), " | "))
		all      = flag.Bool("all", false, "regenerate everything")
		runtime  = flag.Duration("runtime", 2*time.Second, "simulated runtime per FIO instance (paper: 120s)")
		seed     = flag.Uint64("seed", 2018, "experiment seed")
		ssds     = flag.Int("ssds", 64, "number of SSDs")
		solo     = flag.Int("solo-runs", 8, "runs merged for the Fig 13(d) single-thread row (paper: 64)")
		format   = flag.String("format", "text", "output format for figure data: text | json | csv")
		parallel = flag.Int("parallel", 0, "worker pool width for independent runs; 0 = one per CPU (results are byte-identical at any width)")
		seeds    = flag.Int("seeds", 1, "seed-sweep width for single-config figures 6-9 and 11 (seed, seed+1, ...; appends a pooled row)")
	)
	flag.Parse()

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
				fmt.Fprintf(os.Stderr, "bad figure %q\n", part)
				os.Exit(2)
			}
			figs = append(figs, n)
		}
	}
	selected, err := resolve(o, *seeds, *all, figs, *table, *headline, *format, *ablate)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	outputFormat = *format
	sweepSeeds = *seeds
	effectiveParallel = *parallel
	if effectiveParallel <= 0 {
		effectiveParallel = runner.DefaultParallel()
	}

	ran := false
	if *all {
		for _, f := range []int{6, 7, 8, 9, 10, 11, 12, 13} {
			runFigure(f, o)
		}
		runTable(1)
		runTable(2)
		runHeadline(o)
		for _, a := range selected {
			runAblation(a, o)
		}
		return
	}
	for _, n := range figs {
		runFigure(n, o)
		ran = true
	}
	if *table != 0 {
		runTable(*table)
		ran = true
	}
	if *headline {
		runHeadline(o)
		ran = true
	}
	for _, a := range selected {
		runAblation(a, o)
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// resolve rejects option values the simulator would otherwise panic on
// deep inside a run, turn into an empty report, ignore, or only reject
// after earlier reports ran, and maps -all / -ablate to registry
// entries: every entry for -all, the named one for -ablate, none
// otherwise. figs are the -fig numbers, table the -table number (0 for
// none).
func resolve(o core.ExpOptions, seeds int, all bool, figs []int, table int, headline bool, format, name string) ([]ablation, error) {
	switch {
	case seeds < 1:
		return nil, fmt.Errorf("-seeds must be >= 1, got %d", seeds)
	case o.NumSSDs < 1:
		return nil, fmt.Errorf("-ssds must be >= 1, got %d", o.NumSSDs)
	case o.Runtime <= 0:
		return nil, fmt.Errorf("-runtime must be > 0, got %v", time.Duration(o.Runtime))
	case o.SoloRuns < 0:
		return nil, fmt.Errorf("-solo-runs must be >= 0, got %d", o.SoloRuns)
	case format != "text" && format != "json" && format != "csv":
		return nil, fmt.Errorf("unknown -format %q (have text, json, csv)", format)
	case table != 0 && (table < 1 || table > 2):
		return nil, fmt.Errorf("unknown table %d (have 1 and 2)", table)
	case format != "text" && (table != 0 || headline || name != "" || all):
		return nil, fmt.Errorf("-format %s covers figures only, not -table, -headline, -ablate or -all", format)
	case format == "json" && slices.Contains(figs, 10):
		return nil, fmt.Errorf("-fig 10 has no json form (have text, csv)")
	}
	for _, n := range figs {
		if n < 6 || n > 14 {
			return nil, fmt.Errorf("unknown figure %d (have 6-14)", n)
		}
	}
	// Fig 10 logs the first half of the fleet: one SSD logs none.
	if o.NumSSDs < 2 && (all || slices.Contains(figs, 10)) {
		return nil, fmt.Errorf("-fig 10 needs -ssds >= 2, got %d", o.NumSSDs)
	}
	var selected []ablation
	if all {
		selected = ablations
	} else if name != "" {
		for _, a := range ablations {
			if a.name == name {
				selected = []ablation{a}
			}
		}
		if selected == nil {
			return nil, fmt.Errorf("unknown ablation %q (have %s)", name, strings.Join(ablationNames(), ", "))
		}
	}
	for _, a := range selected {
		if o.NumSSDs < a.minSSDs {
			return nil, fmt.Errorf("ablation %q needs -ssds >= %d, got %d", a.name, a.minSSDs, o.NumSSDs)
		}
	}
	return selected, nil
}

// outputFormat selects text/json/csv rendering for figure data.
var outputFormat = "text"

// sweepSeeds is the -seeds flag: how many derived seeds the
// single-config figures fan out over (1 = no sweep).
var sweepSeeds = 1

// effectiveParallel is the resolved worker-pool width, for the
// wall-clock banner.
var effectiveParallel = 1

// emitFigure renders a single-configuration figure, fanning it out
// across -seeds derived seeds when a sweep was requested. The sweep
// appends a "pooled" row merging all fleets, so quick runs can borrow
// statistical depth from breadth instead of -runtime.
func emitFigure(run func(core.ExpOptions) core.Distribution, o core.ExpOptions) {
	if sweepSeeds <= 1 {
		emitDistribution(run(o))
		return
	}
	sweep := core.RunSeedSweep(o, sweepSeeds, run)
	emitDistributions(append(sweep, core.MergeSweep("pooled", sweep)))
}

// emitDistributions renders a multi-distribution figure in the chosen
// format: a JSON array, one CSV per distribution, or the side-by-side
// comparison table.
func emitDistributions(ds []core.Distribution) {
	switch outputFormat {
	case "json":
		if err := core.WriteDistributionsJSON(os.Stdout, ds); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "csv":
		for _, d := range ds {
			if err := core.WriteDistributionCSV(os.Stdout, d); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	default:
		core.WriteComparisonTable(os.Stdout, ds)
	}
}

// emitDistribution renders one figure's distribution in the chosen format.
func emitDistribution(d core.Distribution) {
	switch outputFormat {
	case "json":
		if err := core.WriteDistributionJSON(os.Stdout, d); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "csv":
		if err := core.WriteDistributionCSV(os.Stdout, d); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		core.WriteDistributionTable(os.Stdout, d)
	}
}

func banner(format string, args ...any) {
	fmt.Printf("\n=== "+format+" ===\n", args...)
}

// wallBanner prints the per-experiment wall-clock cost and the pool
// width it was measured at. Wall time is the one number -parallel is
// allowed to change; everything above this line is seed-determined.
func wallBanner(t0 time.Time) {
	fmt.Printf("[%v wall, parallel=%d]\n", time.Since(t0).Round(time.Millisecond), effectiveParallel) //afalint:allow wallclock -- wall-clock cost banner
}

func runFigure(n int, o core.ExpOptions) {
	t0 := time.Now() //afalint:allow wallclock -- wall-clock cost banner, not simulated time
	switch n {
	case 6:
		banner("Fig 6: latency distributions, default configuration")
		emitFigure(core.RunFig6, o)
	case 7:
		banner("Fig 7: + FIO at SCHED_FIFO 99 (chrt)")
		emitFigure(core.RunFig7, o)
	case 8:
		banner("Fig 8: + CPU isolation boot options")
		emitFigure(core.RunFig8, o)
	case 9:
		banner("Fig 9: + IRQ affinity pinned (identical setup to Fig 13(a))")
		emitFigure(core.RunFig9, o)
	case 10:
		banner("Fig 10: latency scatter, 32 SSDs, periodic SMART spikes")
		r := core.RunFig10(o)
		if outputFormat == "csv" {
			if err := core.WriteFig10CSV(os.Stdout, r); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else {
			core.WriteFig10Summary(os.Stdout, r)
		}
	case 11:
		banner("Fig 11: experimental firmware (SMART disabled)")
		emitFigure(core.RunFig11, o)
	case 12:
		banner("Fig 12: comparison of four system configurations")
		emitDistributions(core.RunFig12(o))
	case 13, 14:
		banner("Fig 13/14: latency vs number of SSDs per physical CPU core")
		emitDistributions(core.RunFig13(o))
	default:
		panic(fmt.Sprintf("afareport: figure %d passed resolve", n))
	}
	wallBanner(t0)
}

func runTable(n int) {
	switch n {
	case 1:
		banner("Table I: NVMe SSD specification")
		s := nvme.SpecTableI()
		fmt.Printf("%-30s %s\n", "Host Interface", s.HostInterface)
		fmt.Printf("%-30s %d\n", "Capacity (GB)", s.CapacityGB)
		fmt.Printf("%-30s %d / %d\n", "Random Read/Write (IOPS)", s.RandReadIOPS, s.RandWriteIOPS)
		fmt.Printf("%-30s %d / %d\n", "Sequential Read/Write (MB/s)", s.SeqReadMBps, s.SeqWriteMBps)
		fmt.Printf("%-30s %s\n", "NAND Type", s.NANDType)
	case 2:
		banner("Table II: varying number of SSDs / CPU core")
		core.WriteTableII(os.Stdout)
	default:
		panic(fmt.Sprintf("afareport: table %d passed resolve", n))
	}
}

func runHeadline(o core.ExpOptions) {
	banner("Headline: mean/σ of max latency, default vs tuned kernel")
	t0 := time.Now() //afalint:allow wallclock -- wall-clock cost banner, not simulated time
	core.WriteHeadline(os.Stdout, core.RunHeadline(o))
	wallBanner(t0)
}

// ablation is one -ablate entry.
type ablation struct {
	name   string
	banner string
	run    func(w io.Writer, o core.ExpOptions)
	// sweep, when set, is the entry's single-distribution form: with
	// -seeds N the report appends its N-seed sweep and pooled merge under
	// caption.
	sweep   func(core.ExpOptions) core.Distribution
	caption string
	// minSSDs is the smallest fleet the entry runs on.
	minSSDs int
}

// raidSSDs is the smallest fleet the RAID entries run on: the data
// stripe plus its parity member.
const raidSSDs = core.FaultStripeWidth + 1

// ablations is the ordered registry of -ablate entries: -all runs them
// in this order, and the -ablate help and the unknown-ablation error
// list their names.
var ablations = []ablation{
	{name: "fw", banner: "Ablation: firmware housekeeping variants (tuned kernel)",
		run: report(core.RunFirmwareAblation, core.WriteComparisonTable)},
	{name: "used", banner: "Extension: FOB vs used (non-FOB) state, random writes",
		run: report(core.RunUsedStateStudy, core.WriteComparisonTable)},
	{name: "future", banner: "Section VI prototypes: how much manual tuning do better algorithms recover?",
		run: report(core.RunFutureWorkAblation, core.WriteComparisonTable)},
	{name: "coalesce", banner: "Extension: NVMe interrupt coalescing (QD8)",
		run: report(core.RunCoalescingAblation, core.WriteCoalescingAblation)},
	{name: "tail", banner: "Section I motivation: striped-client tail amplification vs stripe width",
		run: writeTailAtScale},
	{name: "pts", banner: "SNIA PTS-E latency test: purge → rounds → steady state", run: writePTS},
	{name: "faults", banner: "Extension: degraded mode — clean vs faulted vs faulted+tolerant stripe",
		run: report(core.RunFaultAblation, core.WriteFaultAblation), minSSDs: raidSSDs},
	{name: "recovery", banner: "Extension: drive drop-out and recovery under the tolerance stack",
		run: report(core.RunRecoverySeries, core.WriteRecoverySeries), minSSDs: raidSSDs},
	{name: "writes", banner: "Extension: RMW write path — clean / degraded / +rebuild / +tolerance",
		run: report(core.RunWriteAblation, core.WriteWriteAblation), minSSDs: raidSSDs,
		sweep: core.RunWriteLadder, caption: "tolerant-arm write ladder"},
	{name: "hedging", banner: "Extension: hedging policy — static quantile vs per-drive adaptive vs adaptive+budgets",
		run: report(core.RunHedgingAblation, core.WriteHedgingAblation), minSSDs: raidSSDs,
		sweep: core.RunHedgeLadder, caption: "adaptive+budgets read ladder"},
	{name: "load", banner: "Extension: open-loop offered-load ladder — the load-vs-tail knee, with/without QoS admission",
		run:   report(core.RunLoadAblation, core.WriteLoadAblation),
		sweep: core.RunLoadLadder, caption: "admission-arm per-class ladders at 110% load"},
	{name: "iopath", banner: "Extension: low-latency I/O path — {irq, coalesced, polling, passthrough} × {flash, ull}",
		run: report(core.RunIOPathAblation, core.WriteIOPathAblation),
		// The grid's transient-error probe sits on SSD 1.
		minSSDs: 2,
		sweep:   core.RunIOPathLadder, caption: "ull passthrough per-SSD ladders"},
}

// report pairs an experiment with its renderer as a registry run func.
func report[R any](run func(core.ExpOptions) R, write func(io.Writer, R)) func(io.Writer, core.ExpOptions) {
	return func(w io.Writer, o core.ExpOptions) { write(w, run(o)) }
}

// ablationNames lists the registry's names in order.
func ablationNames() []string {
	names := make([]string, len(ablations))
	for i, a := range ablations {
		names[i] = a.name
	}
	return names
}

// runAblation prints one entry's report, plus its seed sweep when
// -seeds asks for one.
func runAblation(a ablation, o core.ExpOptions) {
	t0 := time.Now() //afalint:allow wallclock -- wall-clock cost banner, not simulated time
	banner(a.banner)
	a.run(os.Stdout, o)
	if sweepSeeds > 1 && a.sweep != nil {
		fmt.Printf("\n%s, %d-seed sweep (pooled last):\n", a.caption, sweepSeeds)
		sweep := core.RunSeedSweep(o, sweepSeeds, a.sweep)
		core.WriteComparisonTable(os.Stdout, append(sweep, core.MergeSweep("pooled", sweep)))
	}
	wallBanner(t0)
}

// writeTailAtScale reports striped-client tail amplification at the
// stripe widths from {1, 4, 16, 32} that fit the fleet.
func writeTailAtScale(w io.Writer, o core.ExpOptions) {
	var widths []int
	for _, width := range []int{1, 4, 16, 32} {
		if width <= o.NumSSDs {
			widths = append(widths, width)
		}
	}
	for _, cfg := range []core.Config{core.Default(), core.ExpFirmware()} {
		fmt.Fprintf(w, "-- %s --\n", cfg.Name)
		perSSD, clients := core.RunTailAtScale(cfg, widths, o)
		for i, c := range clients {
			fmt.Fprintf(w, "width %2d: avg %8.1fµs  p99 %8.1fµs  max %8.1fµs  (p99 ×%.2f a single SSD)\n",
				widths[i], c.Ladder.Avg/1e3, float64(c.Ladder.P[0])/1e3,
				float64(c.Ladder.Max)/1e3, core.P99Amplification(c.Ladder, perSSD.Pooled))
		}
	}
}

// writePTS reports the PTS-E latency test's rounds and steady-state
// verdict.
func writePTS(w io.Writer, o core.ExpOptions) {
	rep := core.RunPTSLatencyTest(core.ExpFirmware(), o, 200*sim.Millisecond, 25)
	for i, r := range rep.Rounds {
		fmt.Fprintf(w, "round %2d: fleet avg %.2fµs\n", i+1, r.AvgLatencyNs/1e3)
	}
	if rep.Result.Steady {
		fmt.Fprintf(w, "steady state at round %d (excursion %.1f%%, slope %.1f%%)\n",
			rep.Result.SteadyAt, rep.Result.Excursion*100, rep.Result.Slope*100)
	} else {
		fmt.Fprintln(w, "steady state NOT reached")
	}
}
