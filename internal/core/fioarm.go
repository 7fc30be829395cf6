// The closed-loop harness, the fio counterpart of the RAID arm
// (raidarm.go). The paper's figures and every closed-loop extension are
// the same method: boot a system under one configuration, optionally
// impose a fault schedule or precondition the devices, run one pinned
// FIO thread per active SSD, and read the ladders and counters. Each
// experiment is a table of fioArm values; runFIOArm runs one and
// returns the one result type, FIORun.

package core

import (
	"repro/internal/fault"
	"repro/internal/fio"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

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

// fioArm describes one independent boot of a closed-loop experiment.
type fioArm struct {
	name string
	cfg  Config
	// spec is the measurement template (IODepth, RW, Geometry);
	// runFIOArm fills in the runtime.
	spec RunSpec
	// plan builds the fault schedule; nil boots a clean fleet. It runs
	// inside the arm's job, so no fault-schedule state is shared across
	// parallel workers.
	plan func() fault.Plan
	// prep runs on the booted system before measurement (e.g. used-state
	// preconditioning); nil measures the fresh boot.
	prep func(*System)
}

// cfgArms wraps each configuration as an arm named after it with the
// default QD1 randread template.
func cfgArms(cfgs []Config) []fioArm {
	arms := make([]fioArm, len(cfgs))
	for i, cfg := range cfgs {
		arms[i] = fioArm{name: cfg.Name, cfg: cfg}
	}
	return arms
}

// runFIOArm boots one system for the arm, runs the per-SSD FIO fleet
// on it and collects the ladders and counters.
func runFIOArm(o ExpOptions, a fioArm) FIORun {
	o = o.withDefaults()
	opt := o.systemOptions(a.cfg)
	if a.plan != nil {
		p := a.plan()
		opt.FaultPlan = &p
	}
	sys := NewSystem(opt)
	if a.prep != nil {
		a.prep(sys)
	}
	spec := a.spec
	spec.Runtime = o.Runtime
	res := sys.RunFIO(spec)

	run := FIORun{
		Distribution: NewDistribution(a.name, res),
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
	return run
}

// runFIOArms runs independent arms across o.Parallel workers; results
// come back in arm order, identical to the serial loop.
func runFIOArms(o ExpOptions, arms []fioArm) []FIORun {
	return runner.Map(o.runnerOpts(), arms, func(_ int, a fioArm) FIORun {
		return runFIOArm(o, a)
	})
}

// distributions drops the counters, keeping each arm's per-SSD
// distribution.
func distributions(runs []FIORun) []Distribution {
	ds := make([]Distribution, len(runs))
	for i, r := range runs {
		ds[i] = r.Distribution
	}
	return ds
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
