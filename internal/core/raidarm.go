// The striped-client harness. The fault, write, hedging and recovery
// experiments and the tail-at-scale study are all the same method: boot
// a system under one configuration, optionally impose a fault schedule,
// run one striped client over a data stripe (optionally racing a
// rebuild stream), and compare the arms' ladders and tolerance
// counters. Each experiment is a table of raidArm values; runRAIDArm
// runs one and writeRAIDTable renders them side by side.

package core

import (
	"fmt"
	"io"

	"repro/internal/fault"
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

// RAIDRun is one arm of a RAID ablation: the striped client's result
// plus what the host-side tolerance machinery did around it.
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

// raidArm describes one independent boot of a striped client.
type raidArm struct {
	name string
	cfg  Config
	// width is the data stripe, SSDs [0, width); 0 means
	// FaultStripeWidth. The parity member, for arms that use one, is SSD
	// width.
	width int
	// plan builds the fault schedule from the run's horizon; nil boots a
	// clean fleet. The plan is built inside the arm's job, so no
	// fault-schedule state is shared across parallel workers.
	plan func(horizon sim.Duration) fault.Plan
	// client is the foreground workload template (Workload, Parity, QD,
	// LatLog); runRAIDArm fills in the name, stripe, CPU, runtime,
	// scheduling class, tolerance and seed.
	client raid.ClientSpec
	// rebuild races the writeRebuildSpec stream against the client.
	rebuild bool
	// tol arms RAID-level tolerance; nil means a failed sub-I/O fails its
	// request.
	tol *raid.Tolerance
}

// ssds is how many SSDs the arm touches: the data stripe, plus the
// parity member when the arm reconstructs, hedges, writes or rebuilds
// through it.
func (a raidArm) ssds() int {
	if a.tol != nil || a.rebuild || a.client.Workload == raid.WorkloadWrite {
		return a.width + 1
	}
	return a.width
}

// runRAIDArm boots one system for the arm (o carries its defaults),
// starts the rebuild stream if the arm has one, runs the client to
// completion and snapshots the tolerance machinery. end is the engine
// clock once the client drained.
func runRAIDArm(o ExpOptions, a raidArm) (run RAIDRun, end sim.Time) {
	if a.width == 0 {
		a.width = FaultStripeWidth
	}
	if n := a.ssds(); n > o.NumSSDs {
		panic(fmt.Sprintf("core: RAID arm %q needs %d SSDs, have %d", a.name, n, o.NumSSDs))
	}
	opt := o.systemOptions(a.cfg)
	if a.plan != nil {
		p := a.plan(o.Runtime)
		opt.FaultPlan = &p
	}
	sys := NewSystem(opt)
	cpus := sys.Host.WorkloadCPUs()

	spec := a.client
	spec.Name = a.name
	spec.Stripe = make([]int, a.width)
	for i := range spec.Stripe {
		spec.Stripe[i] = i
	}
	spec.CPU = cpus[0]
	spec.Runtime = o.Runtime
	spec.Class = a.cfg.FIOClass
	spec.RTPrio = a.cfg.FIORTPrio
	spec.Tol = a.tol
	spec.Seed = o.Seed

	var rb *raid.Rebuilder
	if a.rebuild {
		rb = raid.NewRebuilder(sys.Eng, sys.Kernel, writeRebuildSpec(o, cpus[len(cpus)-1]))
		rb.Start(nil)
	}
	res := raid.Run(sys.Eng, sys.Kernel, []raid.ClientSpec{spec})[0]

	run = RAIDRun{Name: a.name, Result: *res, IOStats: sys.Kernel.IOStats()}
	if rb != nil {
		r := rb.Result()
		run.Rebuild = &r
	}
	if h := sys.Kernel.Health(); h != nil {
		for ssd := 0; ssd < a.ssds(); ssd++ {
			run.Drives = append(run.Drives, h.Snapshot(ssd))
		}
	}
	if sys.Faults != nil {
		run.Trace = sys.Faults.TraceString()
	}
	return run, sys.Eng.Now()
}

// runRAIDArms runs independent RAID-ablation arms across o.Parallel
// workers, booted with the stock housekeeping periods; results come back
// in arm order, identical to the serial loop.
func runRAIDArms(o ExpOptions, arms []raidArm) []RAIDRun {
	o = stockOpts(o)
	return runner.Map(o.runnerOpts(), arms, func(_ int, a raidArm) RAIDRun {
		run, _ := runRAIDArm(o, a)
		return run
	})
}

// raidLadder is the sweepable single-distribution form of one arm: its
// client ladder at one seed under the given config name, for
// RunSeedSweep pooling (n seeds read as one n-client fleet).
func raidLadder(o ExpOptions, config string, a raidArm) Distribution {
	run, _ := runRAIDArm(stockOpts(o), a)
	ladders := []stats.Ladder{run.Ladder}
	return Distribution{Config: config, Ladders: ladders, Summary: stats.Summarize(ladders)}
}

// raidCounter is one counter row of a RAID ablation table.
type raidCounter struct {
	label string
	get   func(RAIDRun) int64
}

// writeRAIDTable renders the arms side by side: the ladders in
// ladderW-wide columns, then one row per counter with labelW-wide labels
// and counterW-wide values.
func writeRAIDTable(w io.Writer, runs []RAIDRun, ladderW, labelW, counterW int, counters []raidCounter) {
	fmt.Fprintf(w, "%-10s", "lat(µs)")
	for _, r := range runs {
		fmt.Fprintf(w, " %*s", ladderW, r.Name)
	}
	fmt.Fprintln(w)
	for i := 0; i < stats.NumRungs; i++ {
		fmt.Fprintf(w, "%-10s", stats.LadderLabels[i])
		for _, r := range runs {
			fmt.Fprintf(w, " %*.1f", ladderW, r.Ladder.Rung(i)/1e3)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-*s", labelW, "counter")
	for _, r := range runs {
		fmt.Fprintf(w, " %*s", counterW, r.Name)
	}
	fmt.Fprintln(w)
	for _, c := range counters {
		fmt.Fprintf(w, "%-*s", labelW, c.label)
		for _, r := range runs {
			fmt.Fprintf(w, " %*d", counterW, c.get(r))
		}
		fmt.Fprintln(w)
	}
}
