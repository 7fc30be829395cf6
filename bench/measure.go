package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/sim"
)

// Counter indices of simResult.Counts. The sched … pcie counters are
// deltas of the layers' cumulative accessors across the timed call; the
// rest come from the workload's own result.
const (
	cSwitches          = iota // sched: context switches, all CPUs
	cBusyNs                   // sched: CPU busy time
	cStolenNs                 // sched: CPU time stolen by hardirq/softirq work
	cIRQLocal                 // irq: deliveries on the submitting CPU
	cIRQRemote                // irq: deliveries elsewhere
	cRetries                  // kernel: commands re-issued
	cTimeouts                 // kernel: per-attempt deadlines that fired
	cShedToReconstruct        // kernel: retries denied by a drained budget
	cCmds                     // nvme: commands fetched and decoded
	cSMARTBlocked             // nvme: I/Os that waited on a SMART window
	cDeviceErrors             // nvme: transient, media and dropped commands
	cNANDReads                // nand: host reads
	cNANDWrites               // nand: host writes
	cGCMoves                  // nand: pages relocated by garbage collection
	cUplinkBusyNs             // pcie: uplink transfer time
	cElapsedNs                // simulated time the timed call covered
	cPollSpins                // fio: CQ poll iterations
	cMuxOffered               // fio.mux: arrivals generated
	cMuxAdmitted              // fio.mux: arrivals submitted
	cSubIOs                   // raid: sub-I/Os completed
	cHedges                   // raid: speculative parity reads fired
	cHedgeWins                // raid: hedges that beat the straggler
	cLateSubIOs               // raid: sub-I/Os that answered too late to matter
	cRebuildStripes           // raid: stripes the rebuild stream was given
	cRebuildDone              // raid: stripes it rebuilt before the run ended
	cMaxSuspicion             // health: highest drive suspicion at the end, ‰
	numCounters
)

// numSystemCounters is how many leading counters readSystem fills.
const numSystemCounters = cElapsedNs + 1

type counts [numCounters]int64

// readSystem reads the cumulative layer counters of a booted system.
func readSystem(sys *core.System) counts {
	var c counts
	st := sys.Sched.TotalStats()
	c[cSwitches] = st.Switches
	c[cBusyNs] = int64(st.BusyTime)
	c[cStolenNs] = int64(st.StolenTime)
	c[cIRQLocal], c[cIRQRemote], _ = sys.IRQ.Stats()
	io := sys.Kernel.IOStats()
	c[cRetries] = io.Retries
	c[cTimeouts] = io.Timeouts
	c[cShedToReconstruct] = io.ShedToReconstruct
	for _, d := range sys.SSDs {
		s := d.Stats()
		c[cCmds] += s.Reads + s.Writes + s.Flushes + s.TransientErrors
		c[cSMARTBlocked] += s.SMARTBlockedIOs
		c[cDeviceErrors] += s.TransientErrors + s.MediaErrors + s.DroppedCmds
		f := d.Flash.Stats()
		c[cNANDReads] += f.HostReads
		c[cNANDWrites] += f.HostWrites
		c[cGCMoves] += f.GCPageMoves
	}
	c[cUplinkBusyNs] = int64(sys.Fabric.Uplink.BusyTime())
	c[cElapsedNs] = int64(sys.Eng.Now())
	return c
}

// rep is one repetition of a workload — set-up, the timed call, and the
// read-out — as one child process measures and reports it.
type rep struct {
	// Kind is "full", "timing" or "traced" (see runChild).
	Kind  string       `json:"kind"`
	Host  hostCost     `json:"host"`
	Sim   simResult    `json:"sim"`
	Trace *traceResult `json:"trace,omitempty"`
	Spans []span       `json:"spans"`
}

// hostCost is what the repetition cost the host. It varies run to run.
type hostCost struct {
	SetupNs    int64 `json:"setup_ns"`
	RunNs      int64 `json:"run_ns"`
	Allocs     int64 `json:"allocs"`
	AllocBytes int64 `json:"alloc_bytes"`
	// RefNs is the reference workload's ns per operation, the mean of
	// one measurement just before the timed call and one just after.
	RefNs float64 `json:"ref_ns"`
	// RSSPeakKB is the child's peak resident set, filled in by the parent
	// from the child's rusage.
	RSSPeakKB int64 `json:"rss_peak_kb"`
}

// simResult is the simulated outcome of the timed call. It is a pure
// function of the workload, its scale and the seed: repetitions and the
// traced run must reproduce it byte for byte.
type simResult struct {
	Events     int64   `json:"events"`
	Attempted  int64   `json:"attempted"`
	Completed  int64   `json:"completed"`
	Failed     int64   `json:"failed"`
	Shed       int64   `json:"shed"`
	Unfinished int64   `json:"unfinished"`
	RuntimeNs  int64   `json:"runtime_ns"`
	LatMeanNs  float64 `json:"lat_mean_ns"`
	LatP99Ns   float64 `json:"lat_p99_ns"`
	LatP9999Ns float64 `json:"lat_p9999_ns"`
	Counts     counts  `json:"counts"`
}

// traceResult holds what only the traced run observes.
type traceResult struct {
	// PhaseMeansNs are the pooled blktrace-style phase means, in
	// fio.PhaseLabels order, over PhaseN decomposed I/Os; nil when the
	// workload's entry point exposes no phases.
	PhaseMeansNs []float64 `json:"phase_means_ns,omitempty"`
	PhaseN       int64     `json:"phase_n"`
	// ForeignTasks and ForeignDispatches count non-workload tasks the
	// tracer saw dispatched on the workload CPUs.
	ForeignTasks      int64 `json:"foreign_tasks"`
	ForeignDispatches int64 `json:"foreign_dispatches"`
	// Transfers counts PCIe transfers during the timed call.
	Transfers int64 `json:"transfers"`
}

// span is one host-time interval of a repetition, in ns from its start.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// meter times the three stages of one repetition and records what the
// workload reports.
type meter struct {
	traced bool
	refOps int
	prefix string
	rep    rep
	start  time.Time
}

// span runs f and records it as a named host-time span.
func (m *meter) span(name string, f func()) int64 {
	t0 := time.Since(m.start) //afalint:allow wallclock -- host-time measurement
	f()
	t1 := time.Since(m.start) //afalint:allow wallclock -- host-time measurement
	m.rep.Spans = append(m.rep.Spans, span{Name: name, StartNs: t0.Nanoseconds(), EndNs: t1.Nanoseconds()})
	return (t1 - t0).Nanoseconds()
}

// Set-up repeats, each boot replacing the last, until setupBudget has
// run or maxSetups boots have: a boot of well under a millisecond is
// too short to time once.
const (
	setupBudget = 50 * time.Millisecond
	maxSetups   = 25
)

// setup runs f, the repetition's set-up, and records the median boot.
func (m *meter) setup(f func()) {
	var boots []float64
	var total int64
	for len(boots) == 0 || (len(boots) < maxSetups && total < setupBudget.Nanoseconds()) {
		runtime.GC() // collect the previous boot outside the span
		d := m.span("setup", f)
		boots = append(boots, float64(d))
		total += d
	}
	m.rep.Host.SetupNs = int64(median(boots))
}

// timed makes the one timed call between two reference measurements.
// Layer counters are read before and after it, outside the timed region.
// The heap is collected before the call, so set-up garbage is not
// charged to it, and before each reference measurement, so no collection
// cycle is still running during one.
func (m *meter) timed(sys *core.System, f func()) {
	before := readSystem(sys)
	runtime.GC()
	ref0 := referenceNs(m.refOps)
	var transfers int64
	if m.traced {
		// One reservation per link; a transfer crosses three links.
		sys.Fabric.DebugTrace = func(string, sim.Time, sim.Time, sim.Duration) { transfers++ }
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	steps0 := sys.Eng.Steps()
	m.rep.Host.RunNs = m.span("run", f)
	steps1 := sys.Eng.Steps()
	runtime.ReadMemStats(&ms1)
	runtime.GC()
	m.rep.Host.RefNs = (ref0 + referenceNs(m.refOps)) / 2
	sys.Fabric.DebugTrace = nil
	m.rep.Host.Allocs = int64(ms1.Mallocs - ms0.Mallocs)
	m.rep.Host.AllocBytes = int64(ms1.TotalAlloc - ms0.TotalAlloc)

	after := readSystem(sys)
	o := &m.rep.Sim
	o.Events = int64(steps1 - steps0)
	for i := 0; i < numSystemCounters; i++ {
		o.Counts[i] = after[i] - before[i]
	}
	if m.traced {
		m.rep.Trace = &traceResult{Transfers: transfers / 3}
	}
}

// collect runs f, the read-out of the workload's results, as a span.
func (m *meter) collect(f func()) { m.span("collect", f) }

// tracePhases pools per-job (or per-class) phase means, weighting each
// report by the I/Os it decomposed.
func (m *meter) tracePhases(reports []*fio.PhaseReport) {
	if m.rep.Trace == nil {
		return
	}
	sums := make([]float64, len(fio.PhaseLabels))
	var n int64
	for _, r := range reports {
		if r == nil || r.N() == 0 {
			continue
		}
		for p := range sums {
			sums[p] += r.Mean(fio.Phase(p)) * float64(r.N())
		}
		n += r.N()
	}
	if n == 0 {
		return
	}
	for p := range sums {
		sums[p] /= float64(n)
	}
	m.rep.Trace.PhaseMeansNs = sums
	m.rep.Trace.PhaseN = n
}

// traceForeign counts non-workload tasks on the workload CPUs — the
// paper's Section IV-B LTTng analysis.
func (m *meter) traceForeign(sys *core.System) {
	if m.rep.Trace == nil || sys.Tracer == nil {
		return
	}
	names := map[string]bool{}
	for _, f := range sys.Tracer.ForeignTasksOn(sys.Host.WorkloadCPUs(), m.prefix) {
		names[f.Task] = true
		m.rep.Trace.ForeignDispatches += f.Dispatches
	}
	m.rep.Trace.ForeignTasks = int64(len(names))
}

// runRep runs one repetition of w in this process.
func runRep(w workload, seed uint64, sc scale, traced bool) rep {
	m := &meter{
		traced: traced,
		refOps: sc.RefOps,
		prefix: w.taskPrefix,
		start:  time.Now(), //afalint:allow wallclock -- host-time measurement
	}
	if m.refOps == 0 {
		m.refOps = refOps
	}
	m.rep.Sim.RuntimeNs = int64(sc.Runtime)
	w.run(m, seed, sc)
	return m.rep
}
