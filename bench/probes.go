package main

import (
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/irq"
	"repro/internal/kernel"
	"repro/internal/nand"
	"repro/internal/nvme"
	"repro/internal/pcie"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// probeRounds is how many rounds the probes run. Each round measures
// every probe once, so a slow spell of the host slows a parent probe and
// its children alike; each probe reports its median round.
const probeRounds = 7

// probe drives one public entry point to completion, n times per round.
type probe struct {
	name string
	n    int
	op   func()
	// steps is the engine steps one op takes, and kids how many calls
	// of each child probe it makes; the counting pass fills both.
	steps float64
	kids  map[string]float64
}

// runProbes measures one micro-probe per public entry point the
// workloads drive, on engines holding ~512 pending events, and returns
// the probe metrics by name: ns and allocations per op. A probe that
// steps the engine reports self time instead of ns (_self_ns): its cost
// minus its child probes' costs and minus its remaining engine steps at
// the event probe's cost. scaleDown divides every op count (tests use it).
func runProbes(seed uint64, scaleDown int) map[string]float64 {
	r := rng.NewLabeled(seed, "bench-probes")
	var probes []*probe
	add := func(name string, n int, op func()) *probe {
		p := &probe{name: name, n: n / scaleDown, op: op, kids: map[string]float64{}}
		probes = append(probes, p)
		return p
	}

	// sim: Schedule+Step. The pending events make every push and pop
	// walk a heap as deep as a 64-SSD run keeps.
	eng := sim.NewEngine()
	pad(eng)
	noop := func() {}
	add("sim.event", 2_000_000, func() {
		eng.Schedule(sim.Nanosecond, noop)
		eng.Step()
	})

	// stats: one latency sample into a histogram.
	lats := make([]int64, 4096)
	for i := range lats {
		lats[i] = int64(r.LogNormalMean(60_000, 0.5))
	}
	h := stats.NewHistogram()
	var i int
	add("stats.record", 10_000_000, func() {
		h.Record(lats[i&4095])
		i++
	})

	// nand: 4 KiB reads of unwritten (FOB) slices, and writes of fresh
	// slices into an initialized FTL.
	geom := nand.TableIGeometry()
	rd := nand.NewDevice(sim.NewEngine(), geom, nand.MLC3DTiming(), seed)
	lbas := make([]int64, 4096)
	for i := range lbas {
		lbas[i] = r.Int63n(rd.LogicalSlices())
	}
	add("nand.read", 1_000_000, func() {
		rd.Read(lbas[i&4095])
		i++
	})
	wr := nand.NewDevice(sim.NewEngine(), geom, nand.MLC3DTiming(), seed)
	wr.Precondition(0)
	var next int64
	add("nand.write", 200_000, func() {
		wr.WriteWithGC(next)
		next += 7919 // a prime stride: every write maps a fresh slice
	})

	// pcie: alternating SQE fetches down and 4 KiB payloads up.
	fab := pcie.NewFabric(sim.NewEngine(), pcie.Options{NumSSDs: 1})
	add("pcie.transfer", 2_000_000, func() {
		if i&1 == 0 {
			fab.Downstream(0, 64)
		} else {
			fab.Upstream(0, 4096)
		}
		i++
	})

	// The rest share one booted host with a single SSD and no daemons;
	// each op is stepped until it completes.
	sys := core.NewSystem(core.Options{NumSSDs: 1, Seed: seed, Config: core.ExpFirmware(),
		Daemons: []kernel.DaemonSpec{}})
	pad(sys.Eng)
	cpu := sys.Host.WorkloadCPUs()[0]
	ssd := sys.SSDs[0]
	done := false
	drive := func() {
		for !done {
			if !sys.Eng.Step() {
				panic("bench: probe engine drained before the operation completed")
			}
		}
		done = false
	}
	readCmd := func() nvme.Command {
		i++
		return nvme.Command{Op: nvme.OpRead, LBA: lbas[i&4095], Bytes: 4096}
	}

	// nvme: one read command through the controller.
	onResult := func(nvme.Result) { done = true }
	nvmeCmd := add("nvme.cmd", 300_000, func() {
		ssd.Submit(readCmd(), onResult)
		drive()
	})
	// irq: one completion interrupt, hardirq+softirq stolen on its CPU.
	onDelivery := func(irq.Delivery) { done = true }
	deliver := add("irq.deliver", 500_000, func() {
		sys.IRQ.Deliver(0, cpu, onDelivery)
		drive()
	})
	// sched: one burst on a sleeping thread: Exec, Wake, dispatch, run.
	task := sys.Sched.NewTask("probe/exec", sched.ClassCFS, 0, []int{cpu})
	onBurst := func() { done = true }
	execWake := add("sched.exec_wake", 500_000, func() {
		task.Exec(sim.Microsecond, onBurst)
		sys.Sched.Wake(task)
		drive()
	})
	// kernel: one I/O through the host stack, submit to delivered
	// completion.
	onComplete := func(kernel.Completion) { done = true }
	kernelIO := add("kernel.io", 200_000, func() {
		sys.Kernel.SubmitIO(cpu, 0, readCmd(), onComplete)
		drive()
	})

	// Counting pass: engine steps and child calls per op.
	var links int64
	sys.Fabric.DebugTrace = func(string, sim.Time, sim.Time, sim.Duration) { links++ }
	const counted = 1000
	perOp := func(d int64) float64 { return float64(d) / counted }
	for _, p := range []*probe{nvmeCmd, deliver, execWake, kernelIO} {
		steps0, links0 := sys.Eng.Steps(), links
		reads0, cmds0 := ssd.Flash.Stats().HostReads, ssd.Stats().Reads
		local0, remote0, _ := sys.IRQ.Stats()
		for k := 0; k < counted; k++ {
			p.op()
		}
		local1, remote1, _ := sys.IRQ.Stats()
		p.steps = perOp(int64(sys.Eng.Steps() - steps0))
		switch p {
		case nvmeCmd:
			p.kids["nand.read"] = perOp(ssd.Flash.Stats().HostReads - reads0)
			// One reservation per link; a transfer crosses three links.
			p.kids["pcie.transfer"] = perOp(links-links0) / 3
		case kernelIO:
			p.kids["nvme.cmd"] = perOp(ssd.Stats().Reads - cmds0)
			p.kids["irq.deliver"] = perOp(local1 + remote1 - local0 - remote0)
		}
	}
	sys.Fabric.DebugTrace = nil

	costs := map[string][]cost{}
	steps := map[string]float64{}
	for round := 0; round < probeRounds; round++ {
		for _, p := range probes {
			costs[p.name] = append(costs[p.name], measure(p.n, p.op))
			steps[p.name] = p.steps
		}
	}
	out := map[string]float64{}
	for _, p := range probes {
		self := make([]float64, probeRounds)
		allocs := make([]float64, probeRounds)
		for round, c := range costs[p.name] {
			self[round], allocs[round] = c.ns, c.allocs
			if p.steps == 0 {
				continue // a leaf: its whole cost is its own
			}
			own := p.steps
			for kid, calls := range p.kids {
				self[round] -= calls * costs[kid][round].ns
				own -= calls * steps[kid]
			}
			self[round] -= own * costs["sim.event"][round].ns
		}
		ns := "_ns"
		if p.steps > 0 {
			ns = "_self_ns"
		}
		out["probe."+p.name+ns] = median(self)
		out["probe."+p.name+"_allocs"] = median(allocs)
	}
	return out
}

// cost is the host cost of one probe op.
type cost struct {
	ns, allocs float64
}

// measure runs op n times and reports its host ns and heap allocations
// per op.
func measure(n int, op func()) cost {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	t0 := time.Now() //afalint:allow wallclock -- host-time measurement
	for i := 0; i < n; i++ {
		op()
	}
	d := time.Since(t0) //afalint:allow wallclock -- host-time measurement
	runtime.ReadMemStats(&ms1)
	return cost{
		ns:     float64(d.Nanoseconds()) / float64(n),
		allocs: float64(ms1.Mallocs-ms0.Mallocs) / float64(n),
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[n/2]
}

// pad queues 512 no-op events far beyond any probe's horizon.
func pad(eng *sim.Engine) {
	noop := func() {}
	for i := 0; i < 512; i++ {
		eng.ScheduleAt(sim.Time(0).Add(sim.Duration(1_000_000+i)*sim.Second), noop)
	}
}
