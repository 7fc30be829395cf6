// The one harness for every multi-arm experiment. The paper's figures
// and every extension are the same method: boot a system under one
// configuration, optionally impose a fault schedule, run one workload —
// the per-SSD FIO fleet, a striped client, or the tenant mux — and
// compare the arms' ladders and counters side by side. Each experiment
// is a slice of arm values; runArms fans them out, writeSideBySide
// renders them, and SweepArm reruns one arm of an ablation's grid at
// several seeds.

package core

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/fault"
	"repro/internal/fio"
	"repro/internal/health"
	"repro/internal/kernel"
	"repro/internal/raid"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// FaultStripeWidth is the data-stripe width the RAID ablations use;
// the parity member is SSD FaultStripeWidth.
const FaultStripeWidth = 8

// FIORun is one closed-loop arm: the per-SSD distribution (Config is
// the arm name) plus the pooled ladder and what the fleet and the host
// did around it.
type FIORun struct {
	Distribution
	// Pooled merges every active SSD's completion latencies into one
	// ladder.
	Pooled stats.Ladder
	// IOs and IOPS sum the per-SSD jobs in SSD order.
	IOs  int64
	IOPS float64
	// Tolerance interaction: Errors are non-success statuses the
	// workload saw; Retried/TimedOut are kernel-tier rescues.
	Errors   int64
	Retried  int64
	TimedOut int64
	// Host-CPU-burn accounting: PollSpins counts CQ poll iterations,
	// LocalIRQs/RemoteIRQs the MSI-X deliveries, and BusyNs the total
	// host CPU busy time.
	PollSpins  int64
	LocalIRQs  int64
	RemoteIRQs int64
	BusyNs     int64
}

// Mean reports the pooled mean completion latency in nanoseconds.
func (r FIORun) Mean() float64 { return r.Pooled.Avg }

// IRQs is the total interrupt count, local plus remote.
func (r FIORun) IRQs() int64 { return r.LocalIRQs + r.RemoteIRQs }

// CPUPerIO is the host CPU busy time per I/O in nanoseconds — the price
// column next to a latency win.
func (r FIORun) CPUPerIO() float64 {
	if r.IOs == 0 {
		return 0
	}
	return float64(r.BusyNs) / float64(r.IOs)
}

// RAIDRun is one striped-client arm: the client's result plus what the
// host-side tolerance machinery did around it.
type RAIDRun struct {
	Name string
	// Result is the client's ladder and counters (see raid.Result).
	raid.Result
	// IOStats is the kernel tolerance machinery's activity.
	IOStats kernel.IOStats
	// Rebuild is the rebuild stream's snapshot (nil for arms without one).
	Rebuild *raid.RebuildResult
	// Drives are end-of-run health-tracker snapshots for the stripe
	// members and parity (nil for arms whose kernel runs untracked).
	Drives []health.DriveHealth
	// Trace is the run's failure trace (empty for a clean fleet).
	Trace string
}

// arm is one independent boot of a multi-arm experiment.
type arm struct {
	name string
	cfg  Config
	// plan builds the fault schedule from the run's horizon; nil boots a
	// clean fleet. It runs inside the arm's job, so no fault-schedule
	// state is shared across parallel workers.
	plan func(horizon sim.Duration) fault.Plan
	// load is the workload the booted system runs.
	load workload
}

// workload runs on an arm's booted system and returns its result.
type workload interface {
	run(o ExpOptions, sys *System, name string) armRun
}

// armRun is one arm's result: the part its workload fills, the ladders
// a seed sweep pools, and the engine clock once the workload drained.
type armRun struct {
	fio     FIORun
	raid    RAIDRun
	mux     LoadRun
	ladders []stats.Ladder
	end     sim.Time
}

// runArm boots one system for the arm and runs its workload.
func runArm(o ExpOptions, a arm) armRun {
	o = o.withDefaults()
	opt := o.systemOptions(a.cfg)
	if a.plan != nil {
		p := a.plan(o.Runtime)
		opt.FaultPlan = &p
	}
	return a.load.run(o, NewSystem(opt), a.name)
}

// runArms runs independent arms across o.Parallel workers; results
// come back in arm order, identical to the serial loop.
func runArms(o ExpOptions, arms []arm) []armRun {
	return runner.Map(o.runnerOpts(), arms, func(_ int, a arm) armRun { return runArm(o, a) })
}

// each maps get over xs.
func each[S, T any](xs []S, get func(S) T) []T {
	out := make([]T, len(xs))
	for i, x := range xs {
		out[i] = get(x)
	}
	return out
}

// pooled runs the arms and pools the ladders of consecutive arms that
// share a name into one distribution under that name: one per arm for
// a configuration comparison, one per row for Fig 13's disjoint-SSD
// runs.
func pooled(o ExpOptions, arms []arm) []Distribution {
	var out []Distribution
	for i, r := range runArms(o, arms) {
		if i == 0 || arms[i-1].name != arms[i].name {
			out = append(out, Distribution{Config: arms[i].name})
		}
		d := &out[len(out)-1]
		d.Ladders = append(d.Ladders, r.ladders...)
	}
	for i := range out {
		out[i].Summary = stats.Summarize(out[i].Ladders)
	}
	return out
}

// fleet is the closed-loop workload: one pinned FIO thread per active
// SSD under spec (runtime filled in from the options), after prep (nil
// measures the fresh boot).
type fleet struct {
	spec RunSpec
	prep func(*System)
}

func (f fleet) run(o ExpOptions, sys *System, name string) armRun {
	if f.prep != nil {
		f.prep(sys)
	}
	spec := f.spec
	spec.Runtime = o.Runtime
	res := sys.RunFIO(spec)

	run := FIORun{
		Distribution: NewDistribution(name, res),
		Pooled:       stats.LadderOf(mergedHistogram(res)),
	}
	for _, r := range res {
		if r == nil {
			continue
		}
		run.IOs += r.IOs
		run.IOPS += r.IOPS()
		run.Errors += r.Errors
		run.Retried += r.Retried
		run.TimedOut += r.TimedOut
		run.PollSpins += r.PollSpins
	}
	run.LocalIRQs, run.RemoteIRQs, _ = sys.IRQ.Stats()
	var busy sim.Duration
	for i := 0; i < sys.Sched.NumCPUs(); i++ {
		busy += sys.Sched.CPU(i).BusyTime()
	}
	run.BusyNs = int64(busy)
	return armRun{fio: run, ladders: run.Ladders, end: sys.Eng.Now()}
}

// mergedHistogram pools every active SSD's completion latencies.
func mergedHistogram(results []*fio.Result) *stats.Histogram {
	h := stats.NewHistogram()
	for _, r := range results {
		if r != nil {
			h.Merge(r.Hist)
		}
	}
	return h
}

// stripe is the striped-client workload: one client over the data
// stripe, SSDs [0, width), optionally racing a rebuild stream.
type stripe struct {
	// width is the data stripe; 0 means FaultStripeWidth. The parity
	// member, for arms that use one, is SSD width.
	width int
	// client is the foreground workload template (Workload, Parity, QD,
	// LatLog); run fills in the name, stripe, CPU, runtime, scheduling
	// class, tolerance and seed.
	client raid.ClientSpec
	// rebuild races the writeRebuildSpec stream against the client.
	rebuild bool
	// tol arms RAID-level tolerance; nil means a failed sub-I/O fails its
	// request.
	tol *raid.Tolerance
}

// ssds is how many SSDs the client touches: the data stripe, plus the
// parity member when it reconstructs, hedges, writes or rebuilds
// through it.
func (s stripe) ssds() int {
	if s.tol != nil || s.rebuild || s.client.Workload == raid.WorkloadWrite {
		return s.width + 1
	}
	return s.width
}

func (s stripe) run(o ExpOptions, sys *System, name string) armRun {
	if s.width == 0 {
		s.width = FaultStripeWidth
	}
	if n := s.ssds(); n > len(sys.SSDs) {
		panic(fmt.Sprintf("core: RAID arm %q needs %d SSDs, have %d", name, n, len(sys.SSDs)))
	}
	cpus := sys.Host.WorkloadCPUs()
	spec := s.client
	spec.Name = name
	spec.Stripe = make([]int, s.width)
	for i := range spec.Stripe {
		spec.Stripe[i] = i
	}
	spec.CPU = cpus[0]
	spec.Runtime = o.Runtime
	spec.Class = sys.Config.FIOClass
	spec.RTPrio = sys.Config.FIORTPrio
	spec.Tol = s.tol
	spec.Seed = o.Seed

	var rb *raid.Rebuilder
	if s.rebuild {
		rb = raid.NewRebuilder(sys.Eng, sys.Kernel, writeRebuildSpec(o, cpus[len(cpus)-1]))
		rb.Start(nil)
	}
	res := raid.Run(sys.Eng, sys.Kernel, []raid.ClientSpec{spec})[0]

	run := RAIDRun{Name: name, Result: *res, IOStats: sys.Kernel.IOStats()}
	if rb != nil {
		r := rb.Result()
		run.Rebuild = &r
	}
	if h := sys.Kernel.Health(); h != nil {
		for ssd := 0; ssd < s.ssds(); ssd++ {
			run.Drives = append(run.Drives, h.Snapshot(ssd))
		}
	}
	if sys.Faults != nil {
		run.Trace = sys.Faults.TraceString()
	}
	return armRun{raid: run, ladders: []stats.Ladder{run.Ladder}, end: sys.Eng.Now()}
}

// grid is an ablation's table of arms: whether they boot the stock
// housekeeping periods, and the name the arm a seed sweep reruns runs
// under. The striped client and the tenant mux seed their rng streams
// from their names, so a sweep keeps the name its runs have always had;
// "" reruns the arm under its own name.
type grid struct {
	arms  []arm
	stock bool
	rerun string
}

// opts are the options the grid's arms boot under.
func (g grid) opts(o ExpOptions) ExpOptions {
	if g.stock {
		return stockOpts(o)
	}
	return o
}

// run runs every arm of the grid.
func (g grid) run(o ExpOptions) []armRun { return runArms(g.opts(o), g.arms) }

// stockOpts applies the defaults and boots the stock housekeeping
// periods (TimeScale 1): the RAID ablations and the iopath grid compare
// tolerance policies and completion paths, not rare-event rates.
func stockOpts(o ExpOptions) ExpOptions {
	o = o.withDefaults()
	o.TimeScale = 1
	return o
}

// sweptGrid is the grid of each ablation whose arms -seeds reruns.
func sweptGrid(ablation string) (grid, bool) {
	switch ablation {
	case "writes":
		return writeGrid(), true
	case "hedging":
		return hedgeGrid(), true
	case "load":
		// Capacity 0: each seed probes its own capacity first.
		return loadGrid(0), true
	case "iopath":
		return iopathGrid(), true
	}
	return grid{}, false
}

// SweepArm reruns one arm of an ablation's table at n derived seeds, as
// RunSeedSweep does, and returns the arm's ladders per seed. The
// distributions are labelled ablation-arm ('/' and '+' in the arm name
// read as '-'; an arm name that already starts with "ablation-" is the
// label). It panics if the ablation has no sweepable grid or no such
// arm.
func SweepArm(o ExpOptions, n int, ablation, armName string) []Distribution {
	g, ok := sweptGrid(ablation)
	if !ok {
		panic(fmt.Sprintf("core: ablation %q has no seed sweep", ablation))
	}
	i := 0
	for i < len(g.arms) && g.arms[i].name != armName {
		i++
	}
	if i == len(g.arms) {
		panic(fmt.Sprintf("core: ablation %q has no arm %q", ablation, armName))
	}
	a := g.arms[i]
	if g.rerun != "" {
		a.name = g.rerun
	}
	label := ablation + "-" + strings.NewReplacer("/", "-", "+", "-").Replace(strings.TrimPrefix(armName, ablation+"-"))
	return RunSeedSweep(o, n, func(so ExpOptions) Distribution {
		ladders := runArm(g.opts(so), a).ladders
		return Distribution{Config: label, Ladders: ladders, Summary: stats.Summarize(ladders)}
	})
}

// tableRow is one labelled row of a side-by-side table.
type tableRow struct {
	label string
	cells []string
}

// writeSideBySide renders columns side by side: a header row naming
// the columns under head (none when head is ""), then every row, labels
// left-aligned in labelW and cells right-aligned in colW.
func writeSideBySide(w io.Writer, labelW, colW int, head string, cols []string, rows []tableRow) {
	if head != "" {
		rows = append([]tableRow{{head, cols}}, rows...)
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-*s", labelW, r.label)
		for _, c := range r.cells {
			fmt.Fprintf(w, " %*s", colW, c)
		}
		fmt.Fprintln(w)
	}
}

// cells formats one value per column.
func cells[T any](cols []T, format string, get func(T) any) []string {
	return each(cols, func(c T) string { return fmt.Sprintf(format, get(c)) })
}

// rungRows are one row per ladder rung: each column's value at the
// rung, in µs.
func rungRows[T any](cols []T, ns func(c T, rung int) float64) []tableRow {
	rows := make([]tableRow, stats.NumRungs)
	for i := range rows {
		rows[i] = tableRow{stats.LadderLabels[i], cells(cols, "%.1f", func(c T) any { return ns(c, i) / 1e3 })}
	}
	return rows
}

// counter is one integer row of an arm table.
type counter[T any] struct {
	label string
	get   func(T) int64
}

// counterRows are one row per counter.
func counterRows[T any](cols []T, counters []counter[T]) []tableRow {
	return each(counters, func(c counter[T]) tableRow {
		return tableRow{c.label, cells(cols, "%d", func(r T) any { return c.get(r) })}
	})
}

// raidNames and raidRungs are the header and ladder rows of a
// striped-client arm table.
func raidNames(runs []RAIDRun) []string {
	return cells(runs, "%s", func(r RAIDRun) any { return r.Name })
}

func raidRungs(runs []RAIDRun) []tableRow {
	return rungRows(runs, func(r RAIDRun, i int) float64 { return r.Ladder.Rung(i) })
}
