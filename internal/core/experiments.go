package core

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/fio"
	"repro/internal/kernel"
	"repro/internal/nand"
	"repro/internal/nvme"
	"repro/internal/pts"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// ExpOptions parameterize a figure reproduction.
type ExpOptions struct {
	// Runtime per FIO instance. The paper runs 120 s; the default here is
	// 2 s (≈56 k samples per SSD at QD1). Percentiles above 5-nines need
	// longer runs — pass the paper's 120 s to resolve them fully.
	Runtime sim.Duration
	Seed    uint64
	// NumSSDs defaults to 64.
	NumSSDs int
	// SoloRuns caps the number of single-thread runs merged for the
	// Fig 13(d)/Table II row (64 in the paper; lower it for quick passes).
	SoloRuns int
	// TimeScale compresses rare-event periodicity — the firmware SMART
	// period and the background daemons' inter-session sleeps — for short
	// runs, preserving event magnitudes. The default, Runtime/120 s, makes
	// a short run experience the same *number* of SMART windows and daemon
	// sessions as the paper's 120 s runs; pass 1.0 (with Runtime=120 s)
	// for the uncompressed original. Note the trade-off recorded in
	// EXPERIMENTS.md: compression moves tail events to lower percentile
	// rungs because they occupy a larger fraction of a shorter run.
	TimeScale float64
	// geom overrides the NAND geometry; only the used-state study sets
	// it, to UsedStateGeom.
	geom nand.Geometry
	// Parallel bounds how many independent sim runs are in flight when an
	// experiment fans out over configurations, geometries, or sweep seeds
	// (see internal/runner). 0 means one worker per CPU
	// (runner.DefaultParallel); 1 forces the serial reference order.
	// Results are byte-identical at every setting — each run owns its
	// engine and rng streams, and results merge in submission order.
	Parallel int
}

// runnerOpts translates the Parallel knob for internal/runner.
func (o ExpOptions) runnerOpts() runner.Options {
	return runner.Options{Parallel: o.Parallel}
}

func (o ExpOptions) withDefaults() ExpOptions {
	if o.Runtime == 0 {
		o.Runtime = 2 * sim.Second
	}
	if o.NumSSDs == 0 {
		o.NumSSDs = 64
	}
	if o.SoloRuns == 0 {
		o.SoloRuns = o.NumSSDs
	}
	if o.TimeScale == 0 {
		o.TimeScale = float64(o.Runtime) / float64(120*sim.Second)
	}
	if o.TimeScale > 1 {
		o.TimeScale = 1
	}
	return o
}

// systemOptions boots cfg at the experiment's scale, compressing the
// rare-event periodicity by TimeScale (1 boots the stock periods).
func (o ExpOptions) systemOptions(cfg Config) Options {
	opt := Options{NumSSDs: o.NumSSDs, Seed: o.Seed, Config: cfg, Geom: o.geom}
	if o.TimeScale > 0 && o.TimeScale != 1 {
		fw := nvme.DefaultFirmware()
		fw.Kind = cfg.Firmware
		fw.SMARTPeriod = sim.Duration(float64(fw.SMARTPeriod) * o.TimeScale)
		opt.FirmwareOverride = &fw
		opt.Daemons = kernel.ScaleDaemonPeriods(kernel.DefaultDaemons(), o.TimeScale)
	}
	return opt
}

func (o ExpOptions) newSystem(cfg Config) *System {
	return NewSystem(o.systemOptions(cfg))
}

// RunLatencyDistribution measures the per-SSD latency ladders under one
// configuration with the Fig 5 geometry — the common shape of Figs 6-9
// and 11.
func RunLatencyDistribution(cfg Config, o ExpOptions) Distribution {
	return runArm(o, arm{name: cfg.Name, cfg: cfg, load: fleet{}}).fio.Distribution
}

// runDistributions measures one latency distribution per configuration,
// each the default QD1 randread fleet in an arm named after the config.
func runDistributions(o ExpOptions, cfgs []Config) []Distribution {
	return pooled(o, each(cfgs, func(cfg Config) arm { return arm{name: cfg.Name, cfg: cfg, load: fleet{}} }))
}

// RunFig6 reproduces Fig 6: latency distributions of 64 SSDs under the
// default system configuration.
func RunFig6(o ExpOptions) Distribution { return RunLatencyDistribution(Default(), o) }

// RunFig7 reproduces Fig 7: after assigning the highest priority to FIO.
func RunFig7(o ExpOptions) Distribution { return RunLatencyDistribution(CHRT(), o) }

// RunFig8 reproduces Fig 8: after setting CPU isolation.
func RunFig8(o ExpOptions) Distribution { return RunLatencyDistribution(Isolcpus(), o) }

// RunFig9 reproduces Fig 9: after setting CPU affinity for all IRQ
// handlers (identical setup to Fig 13(a)).
func RunFig9(o ExpOptions) Distribution { return RunLatencyDistribution(IRQAffinity(), o) }

// RunFig11 reproduces Fig 11: the experimental firmware with SMART
// update/save disabled.
func RunFig11(o ExpOptions) Distribution { return RunLatencyDistribution(ExpFirmware(), o) }

// Fig10Result is the scatter-plot data: per-SSD latency sample logs and
// the detected spike clusters.
type Fig10Result struct {
	// Logs[i] holds SSD i's (completion time, latency) samples.
	Logs [][]stats.Sample
	// SpikeClusters are the start times (ns) of detected spike windows
	// across all logged SSDs.
	SpikeClusters []int64
	// SMARTWindows is the firmware-side count, for cross-checking.
	SMARTWindows int64
}

// RunFig10 reproduces Fig 10: raw latency samples from 32 of the 64 SSDs
// (the paper's footnote-1 workaround: logging all 64 perturbed results)
// under the tuned kernel with standard firmware. Housekeeping periodicity
// is time-scaled to the run length so the spike train lands at the same
// relative positions as in the paper's 120 s run.
func RunFig10(o ExpOptions) Fig10Result {
	o = o.withDefaults()
	sys := o.newSystem(IRQAffinity())
	logged := o.NumSSDs / 2
	res := sys.RunFIO(RunSpec{Runtime: o.Runtime, LatLogSSDs: logged})

	out := Fig10Result{}
	spikeThreshold := int64(200_000) // 200 µs: far above kernel noise, well below the SMART stall
	gap := int64(50 * sim.Millisecond)
	for i := 0; i < logged; i++ {
		if res[i] == nil || res[i].Log == nil {
			continue
		}
		out.Logs = append(out.Logs, res[i].Log.Samples())
		out.SpikeClusters = append(out.SpikeClusters, res[i].Log.SpikeClusters(spikeThreshold, gap)...)
	}
	for _, d := range sys.SSDs[:logged] {
		out.SMARTWindows += d.Stats().SMARTWindows
	}
	return out
}

// RunFig12 reproduces Fig 12: the four kernel configurations' mean and
// standard deviation at every ladder rung across 64 SSDs. The four
// configurations run in parallel (see ExpOptions.Parallel).
func RunFig12(o ExpOptions) []Distribution {
	return runDistributions(o, AllKernelConfigs())
}

// TableIIRow is one row of Table II.
type TableIIRow struct {
	Fig                string
	SSDsPerPhysCore    int // 0 = "1 FIO thread on the entire system"
	IRQPerLogicalCore  int
	FIOPerLogicalCore  int
	FIOThreadsInSystem int
	Runs               int
}

// TableII returns the experiment matrix of Table II.
func TableII() []TableIIRow {
	return []TableIIRow{
		{Fig: "13(a)", SSDsPerPhysCore: 4, IRQPerLogicalCore: 2, FIOPerLogicalCore: 2, FIOThreadsInSystem: 64, Runs: 1},
		{Fig: "13(b)", SSDsPerPhysCore: 2, IRQPerLogicalCore: 1, FIOPerLogicalCore: 1, FIOThreadsInSystem: 32, Runs: 2},
		{Fig: "13(c)", SSDsPerPhysCore: 1, IRQPerLogicalCore: 1, FIOPerLogicalCore: 1, FIOThreadsInSystem: 16, Runs: 4},
		{Fig: "13(d)", SSDsPerPhysCore: 0, IRQPerLogicalCore: 1, FIOPerLogicalCore: 1, FIOThreadsInSystem: 1, Runs: 64},
	}
}

// RunFig13 reproduces Fig 13 (and, through the summaries, Fig 14): the
// latency distributions for 4/2/1 SSDs per physical core and for a single
// FIO thread, each merged over disjoint-SSD runs per Table II and
// returned in TableII() order.
func RunFig13(o ExpOptions) []Distribution {
	o = o.withDefaults()
	host := topology.XeonE52690v2()
	cfg := IRQAffinity() // Fig 13(a) is identical to Fig 9

	geoms := func(row TableIIRow) []*topology.Geometry {
		switch row.SSDsPerPhysCore {
		case 4:
			return []*topology.Geometry{topology.DefaultGeometry(host, o.NumSSDs)}
		case 2:
			return []*topology.Geometry{
				topology.HalfGeometry(host, o.NumSSDs, 0),
				topology.HalfGeometry(host, o.NumSSDs, 1),
			}
		case 1:
			var gs []*topology.Geometry
			for run := 0; run < 4; run++ {
				gs = append(gs, topology.QuarterGeometry(host, o.NumSSDs, run))
			}
			return gs
		default:
			var gs []*topology.Geometry
			n := row.Runs
			if o.SoloRuns < n {
				n = o.SoloRuns
			}
			for run := 0; run < n; run++ {
				gs = append(gs, topology.SoloGeometry(host, o.NumSSDs, run))
			}
			return gs
		}
	}

	// Every (row, geometry) pair is a fresh boot (the paper reran fio on
	// disjoint SSD sets), so the whole Table II matrix — including the 64
	// solo runs of the 13(d) row — is one flat batch of independent arms,
	// each named after its row so that a row's runs pool into one
	// distribution.
	var arms []arm
	for _, row := range TableII() {
		for _, g := range geoms(row) {
			arms = append(arms, arm{name: "fig" + row.Fig, cfg: cfg, load: fleet{spec: RunSpec{Geometry: g}}})
		}
	}
	return pooled(o, arms)
}

// Headline quantifies the abstract's claim: mean and standard deviation of
// the per-SSD maximum latency, default configuration versus the finely
// tuned kernel.
type Headline struct {
	DefaultMeanMax float64
	DefaultStdMax  float64
	TunedMeanMax   float64
	TunedStdMax    float64
}

// MeanImprovement is the ×-factor reduction of mean(max).
func (h Headline) MeanImprovement() float64 {
	if h.TunedMeanMax == 0 {
		return 0
	}
	return h.DefaultMeanMax / h.TunedMeanMax
}

// StdImprovement is the ×-factor reduction of σ(max).
func (h Headline) StdImprovement() float64 {
	if h.TunedStdMax == 0 {
		return 0
	}
	return h.DefaultStdMax / h.TunedStdMax
}

// RunHeadline measures the abstract's ×8 / ×400 claim. The default and
// tuned arms run in parallel.
func RunHeadline(o ExpOptions) Headline {
	ds := runDistributions(o, []Config{Default(), IRQAffinity()})
	def, tuned := ds[0], ds[1]
	maxRung := stats.NumRungs - 1
	return Headline{
		DefaultMeanMax: def.Summary.Mean[maxRung],
		DefaultStdMax:  def.Summary.Std[maxRung],
		TunedMeanMax:   tuned.Summary.Mean[maxRung],
		TunedStdMax:    tuned.Summary.Std[maxRung],
	}
}

// --- extensions beyond the paper (ablations) ---

// RunFutureWorkAblation evaluates the Section VI prototypes against the
// stock default configuration and the fully hand-tuned kernel: the
// auto-isolating scheduler, the affinity-aware IRQ balancer, and both
// combined. The question the ablation answers: how much of the manual
// tuning can better algorithms recover automatically?
func RunFutureWorkAblation(o ExpOptions) []Distribution {
	return runDistributions(o, []Config{
		Default(), FutureSched(), FutureIRQ(), FutureBoth(), IRQAffinity(),
	})
}

// PTSRound is one measurement round of the PTS-E latency test.
type PTSRound struct {
	AvgLatencyNs float64
	Ladder       stats.Ladder
}

// PTSReport is the outcome of a PTS-E chapter-9-style latency test on the
// simulated array.
type PTSReport struct {
	Result pts.Result
	Rounds []PTSRound
}

// RunPTSLatencyTest executes the methodology the paper cites: purge every
// device (NVMe format → FOB), then run measurement rounds of 4 KiB QD1
// random reads until the SNIA PTS-E steady-state criteria hold on the
// fleet-average latency. One booted system is reused across rounds, as on
// the testbed — the rounds feed back into the steady-state detector, so
// this protocol is inherently sequential and never fans out.
func RunPTSLatencyTest(cfg Config, o ExpOptions, roundLen sim.Duration, maxRounds int) PTSReport {
	o = o.withDefaults()
	if roundLen == 0 {
		roundLen = 200 * sim.Millisecond
	}
	sys := o.newSystem(cfg)
	sys.FormatAll() // purge

	var rep PTSReport
	rep.Result = pts.Run(maxRounds, func(round int) float64 {
		res := sys.RunFIO(RunSpec{Runtime: roundLen, Warmup: sim.Millisecond})
		d := NewDistribution(cfg.Name, res)
		rep.Rounds = append(rep.Rounds, PTSRound{
			AvgLatencyNs: d.Summary.Mean[0],
			Ladder:       stats.LadderOf(mergedHistogram(res)),
		})
		return d.Summary.Mean[0]
	})
	return rep
}

// RunTailAtScale quantifies the Section I motivation — "even if one SSD
// out of many shows long tail latency, the entire I/O from the client is
// delayed by the same amount" — under cfg: perSSD is the closed-loop
// per-SSD baseline, and clients holds one striped client per width, an
// arm named stripe-<w> over SSDs [0, w). Unlike the RAID ablations, the
// arms keep the caller's compressed housekeeping periods. The baseline
// and the clients are independent boots and fan out as one batch.
func RunTailAtScale(cfg Config, widths []int, o ExpOptions) (perSSD FIORun, clients []RAIDRun) {
	// Arm 0 is the per-SSD baseline; arm i is the client of widths[i-1].
	arms := []arm{{name: cfg.Name, cfg: cfg, load: fleet{}}}
	for _, w := range widths {
		if w < 1 {
			panic(fmt.Sprintf("core: stripe width %d < 1", w))
		}
		arms = append(arms, arm{name: fmt.Sprintf("stripe-%d", w), cfg: cfg, load: stripe{width: w}})
	}
	runs := runArms(o, arms)
	return runs[0].fio, each(runs[1:], func(r armRun) RAIDRun { return r.raid })
}

// P99Amplification is how much worse a striped client's 99th percentile
// is than the per-SSD baseline's: client.P99 / base.P99, or 0 when the
// baseline's P99 is 0.
func P99Amplification(client, base stats.Ladder) float64 {
	if base.P[0] == 0 {
		return 0
	}
	return float64(client.P[0]) / float64(base.P[0])
}

// RunCoalescingAblation quantifies the interrupt-storm trade-off the paper
// raises in Section I: NVMe interrupt coalescing cuts the interrupt rate
// at some latency cost. Both arms — no coalescing, then coalescing — use
// queue depth 8 so batches can form, and run in parallel.
func RunCoalescingAblation(o ExpOptions) []FIORun {
	base := ExpFirmware()
	base.Name = "no-coalesce"

	co := ExpFirmware()
	co.Name = "coalesce-4"
	co.Coalesce = kernel.Coalescing{Threshold: 4, Timeout: 100 * sim.Microsecond}

	qd8 := fleet{spec: RunSpec{IODepth: 8}}
	runs := runArms(o, []arm{{name: base.Name, cfg: base, load: qd8}, {name: co.Name, cfg: co, load: qd8}})
	return each(runs, func(r armRun) FIORun { return r.fio })
}

// WriteCoalescingAblation renders the arms' comparison table and the
// interrupts each spent per I/O.
func WriteCoalescingAblation(w io.Writer, runs []FIORun) {
	WriteComparisonTable(w, each(runs, func(r FIORun) Distribution { return r.Distribution }))
	rates := make([]string, len(runs))
	for i, r := range runs {
		rates[i] = fmt.Sprintf("%.2f", float64(r.IRQs())/float64(r.IOs))
	}
	fmt.Fprintf(w, "interrupts/IO: %s\n", strings.Join(rates, " → "))
}

// RunFirmwareAblation compares the three firmware builds under the tuned
// kernel: standard SMART, disabled, and the incremental protocol sketch.
// The three builds run in parallel.
func RunFirmwareAblation(o ExpOptions) []Distribution {
	o = o.withDefaults()
	var cfgs []Config
	for _, kind := range []nvme.FirmwareKind{
		nvme.FirmwareStandard, nvme.FirmwareNoSMART, nvme.FirmwareIncremental,
	} {
		cfg := IRQAffinity()
		cfg.Firmware = kind
		cfg.Name = "fw-" + kind.String()
		cfgs = append(cfgs, cfg)
	}
	return runDistributions(o, cfgs)
}

// usedFillFraction is the share of the logical space the used-state
// study preconditions before measuring.
const usedFillFraction = 0.9

// RunUsedStateStudy is the paper's stated future work: latency in a used
// (non-FOB) SSD state with a mixed read/write workload driving GC.
// It returns the FOB baseline, then the preconditioned distribution.
func RunUsedStateStudy(o ExpOptions) []Distribution {
	o = o.withDefaults()
	o.geom = UsedStateGeom()
	// Cap the run so the FOB baseline's fill stays within the small
	// device's logical capacity; a longer FOB run would wrap and start
	// garbage-collecting too, erasing the contrast being measured.
	if o.Runtime > 250*sim.Millisecond {
		o.Runtime = 250 * sim.Millisecond
	}
	cfg := ExpFirmware()

	// Random writes are what separates the states: in FOB they stream into
	// fresh blocks, in the used state they drag foreground GC along. The
	// two states are independent boots and run in parallel.
	spec := RunSpec{RW: fio.RandWrite}
	precondition := func(sys *System) {
		for _, d := range sys.SSDs {
			d.Flash.Precondition(usedFillFraction)
		}
	}
	return pooled(o, []arm{
		{name: "fob", cfg: cfg, load: fleet{spec: spec}},
		{name: "used", cfg: cfg, load: fleet{spec: spec, prep: precondition}},
	})
}

// UsedStateGeom returns the geometry for the used-state study: small
// enough that (a) preconditioning does not need gigabytes of LBA mapping
// (the host-slice map of a full Table I device would hold ~2×10⁸ entries;
// the block table grows only with opened blocks and is not the limit)
// and (b) a preconditioned device hits garbage collection within a
// short measured run.
func UsedStateGeom() nand.Geometry {
	return nand.TinyGeometry()
}
