package main

import (
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fio"
	"repro/internal/kernel"
	"repro/internal/nvme"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/stats"
)

// scale sizes one workload run. A workload's simulated metrics, counts
// and allocations come from one repetition at its full scale; its host
// time comes from many short repetitions at its timing scale. The tests
// also run each definition at a tiny one.
type scale struct {
	SSDs    int
	Runtime sim.Duration
	// Tenants is the open-loop population (open-mux-10k only).
	Tenants int
	// RefOps is the reference workload's size (see reference.go); zero
	// means refOps.
	RefOps int
}

// workload is one set of inputs the benchmark runs. run boots the system
// (set-up), makes exactly one timed call into a public entry point, and
// reads every counter through public accessors afterwards.
type workload struct {
	name string
	// why is the one-line reason the workload is in the benchmark; it is
	// the "why" of BENCHMARK.json.
	why  string
	desc string
	full scale
	// timing is sized so one timed call takes a few tenths of a second.
	timing scale
	// taskPrefix names the workload's own threads, so the traced run can
	// count the foreign tasks that ran on the workload CPUs.
	taskPrefix string
	run        func(m *meter, seed uint64, sc scale)
}

// workloads are the benchmark's inputs, in report order.
var workloads = []workload{
	{
		name:       "closed-default",
		why:        "The paper's Fig 6 stack: sched (1 switch/io, CFS daemons) and irq (98% remote) heavy; FOB reads leave the nand write path and FTL idle.",
		desc:       "64 SSDs, core.Default(), 64 pinned fio jobs, closed loop QD1 4 KiB randread",
		full:       scale{SSDs: 64, Runtime: 4 * sim.Second},
		timing:     scale{SSDs: 64, Runtime: 250 * sim.Millisecond},
		taskPrefix: "fio/",
		run:        runClosedDefault,
	},
	{
		name:       "ull-polling",
		why:        "ULL devices with polled completion: host software dominates, zero interrupts bypass irq; the managed submit path and the fio poll loop do the work.",
		desc:       "64 ULL SSDs, iopath ull/polling cell (ExpFirmware, unpinned IRQs, DefaultTimeoutPolicy, CompletePolling, 0.4% transient errors on SSD 1), closed loop QD1 4 KiB randread",
		full:       scale{SSDs: 64, Runtime: 500 * sim.Millisecond},
		timing:     scale{SSDs: 64, Runtime: 80 * sim.Millisecond},
		taskPrefix: "fio/",
		run:        runULLPolling,
	},
	{
		name: "open-mux-10k",
		why:  "Open loop, 10k tenants: the timer-wheel mux and QoS submit path with writes on the nand/FTL path; the sched model charges no CPU, so sched is bypassed.",
		desc: "64 SSDs, core.IRQAffinity(), open loop, 10k tenants (20% Poisson latency readers, 50% MMPP readers, 30% diurnal writers), 2M IOPS offered",
		full: scale{SSDs: 64, Runtime: 600 * sim.Millisecond, Tenants: 10_000},
		// A call costs a fixed ~0.5 s of host time besides its per-op
		// cost (a 200 ms call cost twice as much per op as a 1 s one), so
		// host time is taken at full scale. Set-up dominates a repetition
		// anyway.
		timing:     scale{SSDs: 64, Runtime: 600 * sim.Millisecond, Tenants: 10_000},
		taskPrefix: "mux/",
		run:        runOpenMux,
	},
	{
		name:       "raid-hedge-faults",
		why:        "RAID-5 8+1 at QD4 with adaptive hedging, drive faults and a racing rebuild: exercises raid, health, fault and kernel timeout/retry layers.",
		desc:       "16 SSDs, core.AdaptiveBudgets(), core.DemoHedgePlan, one RAID-5 8+1 client at QD4 with adaptive hedging, throttled rebuild from the midpoint",
		full:       scale{SSDs: 16, Runtime: 20 * sim.Second},
		timing:     scale{SSDs: 16, Runtime: 3 * sim.Second},
		taskPrefix: "raid/",
		run:        runRAIDHedgeFaults,
	},
}

// lookup returns the named workload.
func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// traceEvents is the raw dispatch-record budget of the traced run's
// tracer; its dispatch and delivery counts accumulate regardless.
const traceEvents = 1024

func systemOptions(m *meter, seed uint64, sc scale, cfg core.Config) core.Options {
	opt := core.Options{NumSSDs: sc.SSDs, Seed: seed, Config: cfg}
	if m.traced {
		opt.TraceEvents = traceEvents
	}
	return opt
}

// runClosedDefault is the headline-64ssd row of BENCH_engine.json, run
// longer: at 64 SSDs and 500 ms it reproduces that row exactly.
func runClosedDefault(m *meter, seed uint64, sc scale) {
	var sys *core.System
	m.setup(func() { sys = core.NewSystem(systemOptions(m, seed, sc, core.Default())) })
	var res []*fio.Result
	m.timed(sys, func() { res = sys.RunFIO(core.RunSpec{Runtime: sc.Runtime, Phases: m.traced}) })
	m.collect(func() { m.fioOutcome(sys, res) })
}

// ullPollingConfig is the iopath grid's ull/polling cell: the tuned
// scheduler side of ExpFirmware, stock (unpinned) vectors, the host
// timeout/retry machinery armed, and CQ polling on the ULL device class.
func ullPollingConfig() core.Config {
	cfg := core.ExpFirmware()
	cfg.Name = "ull/polling"
	cfg.PinIRQs = false
	cfg.Timeout = kernel.DefaultTimeoutPolicy()
	cfg.Device = nvme.ClassULL
	cfg.Mode = kernel.CompletePolling
	return cfg
}

func runULLPolling(m *meter, seed uint64, sc scale) {
	var sys *core.System
	m.setup(func() {
		opt := systemOptions(m, seed, sc, ullPollingConfig())
		// The iopath grid's tolerance probe: transient errors on SSD 1
		// that the kernel retries out of sight.
		opt.FaultPlan = &fault.Plan{Profiles: []fault.Profile{{SSD: 1, TransientRate: 0.004}}}
		sys = core.NewSystem(opt)
	})
	var res []*fio.Result
	m.timed(sys, func() { res = sys.RunFIO(core.RunSpec{Runtime: sc.Runtime, Phases: m.traced}) })
	m.collect(func() { m.fioOutcome(sys, res) })
}

// muxOffered is the open-loop aggregate offered rate at 64 SSDs: about
// 53% of the array's 3.75M IOPS capacity, below the knee.
const muxOffered = 2e6

func runOpenMux(m *meter, seed uint64, sc scale) {
	var sys *core.System
	var mux *fio.Multiplexer
	m.setup(func() {
		sys = core.NewSystem(systemOptions(m, seed, sc, core.IRQAffinity()))
		sys.Eng.RunUntil(sys.Eng.Now().Add(50 * sim.Millisecond))
		// Build every device's FTL write structures now, so the first
		// background write of the timed call does not pay for them.
		for _, d := range sys.SSDs {
			d.Flash.Precondition(0)
		}
		mux = fio.NewMultiplexer(sys.Eng, sys.Kernel, fio.MuxConfig{
			Name:    "open-mux-10k",
			Runtime: sc.Runtime,
			Seed:    seed,
			CPUs:    sys.Host.WorkloadCPUs(),
			Phases:  m.traced,
		})
		offered := muxOffered * float64(sc.SSDs) / 64
		for t := 0; t < sc.Tenants; t++ {
			spec := fio.TenantSpec{
				SSD:     t % sc.SSDs,
				Arrival: fio.ArrivalSpec{Rate: offered / float64(sc.Tenants)},
			}
			switch k := t % 10; {
			case k < 2:
				spec.Class, spec.RW = kernel.ClassLatency, fio.RandRead
				spec.Arrival.Kind = fio.ArrivalPoisson
			case k < 7:
				spec.Class, spec.RW = kernel.ClassThroughput, fio.RandRead
				spec.Arrival.Kind = fio.ArrivalMMPP
			default:
				spec.Class, spec.RW = kernel.ClassBackground, fio.RandWrite
				spec.Arrival.Kind = fio.ArrivalDiurnal
			}
			mux.AddTenant(spec)
		}
	})
	var res *fio.MuxResult
	m.timed(sys, func() { res = mux.Run() })
	m.collect(func() {
		io := sys.Kernel.IOStats()
		var shed, kernelInFlight int64
		var phases []*fio.PhaseReport
		for i, c := range res.Class {
			shed += c.Shed + c.QueueShed
			kc := io.Class[i]
			kernelInFlight += kc.Submitted - kc.Completed - kc.Errors
			phases = append(phases, c.Phases)
		}
		o := &m.rep.Sim
		o.Attempted = res.Offered
		o.Completed = res.Completed
		o.Failed = res.Errors
		o.Shed = shed
		// Arrivals still parked behind admission, plus I/Os the kernel
		// had in flight when the run ended.
		o.Unfinished = res.Offered - res.Admitted - shed + kernelInFlight
		// The multiplexer exposes its pooled ladder, not the histogram:
		// its percentiles are bucket lower edges.
		o.LatMeanNs = res.Total.Avg
		o.LatP99Ns = float64(res.Total.P[0])
		o.LatP9999Ns = float64(res.Total.P[2])
		o.Counts[cMuxOffered] = res.Offered
		o.Counts[cMuxAdmitted] = res.Admitted
		m.tracePhases(phases)
		m.traceForeign(sys)
	})
}

func runRAIDHedgeFaults(m *meter, seed uint64, sc scale) {
	const width = core.FaultStripeWidth // 8 data members, parity on member 8
	var sys *core.System
	var spec raid.ClientSpec
	var rb *raid.Rebuilder
	m.setup(func() {
		cfg := core.AdaptiveBudgets()
		plan := core.DemoHedgePlan(sc.Runtime)
		opt := systemOptions(m, seed, sc, cfg)
		opt.FaultPlan = &plan
		sys = core.NewSystem(opt)
		cpus := sys.Host.WorkloadCPUs()
		stripe := make([]int, width)
		survivors := make([]int, 0, width-1)
		for i := range stripe {
			stripe[i] = i
			if i > 0 {
				survivors = append(survivors, i)
			}
		}
		tol := raid.DefaultTolerance(width)
		tol.Adaptive = true
		spec = raid.ClientSpec{
			Name: "raid-hedge-faults", Stripe: stripe, Runtime: sc.Runtime, QD: 4,
			Class: cfg.FIOClass, RTPrio: cfg.FIORTPrio, Tol: tol, Seed: seed, CPU: cpus[0],
		}
		// Member 0 is replaced at the midpoint (DemoHedgePlan) and rebuilt
		// from there, one stripe per 100 µs throttle plus service time.
		rb = raid.NewRebuilder(sys.Eng, sys.Kernel, raid.RebuildSpec{
			Survivors: survivors, Parity: width, Target: 0,
			CPU:      cpus[len(cpus)-1],
			StartAt:  sim.Time(0).Add(sc.Runtime / 2),
			Stripes:  int64(sc.Runtime / (400 * sim.Microsecond)),
			Throttle: 100 * sim.Microsecond,
		})
		rb.Start(nil)
	})
	var res *raid.Result
	m.timed(sys, func() { res = raid.Run(sys.Eng, sys.Kernel, []raid.ClientSpec{spec})[0] })
	m.collect(func() {
		o := &m.rep.Sim
		o.Attempted = res.Requests + res.FailedRequests
		o.Completed = res.Hist.Count()
		o.Failed = res.FailedRequests
		o.setLatency(res.Hist)
		o.Counts[cSubIOs] = res.SubIOs
		o.Counts[cHedges] = res.HedgedReads
		o.Counts[cHedgeWins] = res.HedgeWins
		o.Counts[cLateSubIOs] = res.LateSubIOs
		rr := rb.Result()
		o.Counts[cRebuildStripes] = rr.Spec.Stripes
		o.Counts[cRebuildDone] = rr.StripesRebuilt
		if h := sys.Kernel.Health(); h != nil {
			for ssd := 0; ssd < h.NumDrives(); ssd++ {
				if s := h.Suspicion(ssd); s > o.Counts[cMaxSuspicion] {
					o.Counts[cMaxSuspicion] = s
				}
			}
		}
		m.traceForeign(sys)
	})
}

// fioOutcome fills the outcome of a closed-loop fio run: latencies pool
// every job's histogram.
func (m *meter) fioOutcome(sys *core.System, res []*fio.Result) {
	pooled := stats.NewHistogram()
	o := &m.rep.Sim
	var phases []*fio.PhaseReport
	for _, r := range res {
		if r == nil {
			continue
		}
		pooled.Merge(r.Hist)
		o.Attempted += r.IOs
		o.Failed += r.Errors
		o.Counts[cPollSpins] += r.PollSpins
		phases = append(phases, r.Phases)
	}
	o.Completed = pooled.Count()
	o.setLatency(pooled)
	m.tracePhases(phases)
	m.traceForeign(sys)
}

func (o *simResult) setLatency(h *stats.Histogram) {
	o.LatMeanNs = h.Mean()
	o.LatP99Ns = interpolated(h, 0.99)
	o.LatP9999Ns = interpolated(h, 0.9999)
}

// interpolated is h's q-quantile, interpolated linearly by rank across
// the histogram bucket that holds it. h.Quantile reports the bucket's
// lower edge, which is up to 0.78% low and reads the same for every seed
// when one bucket holds the quantile's whole neighbourhood (the ULL
// fleet's latency is nearly a point mass).
func interpolated(h *stats.Histogram, q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	// The value at 1-based rank k, with stats' rank rule ceil(q·n).
	at := func(k int64) int64 { return h.Quantile((float64(k) - 0.5) / float64(n)) }
	rank := int64(math.Ceil(q * float64(n)))
	low := at(rank)
	if low >= h.Max() {
		return float64(low)
	}
	// The ranks [first, last] that share low's bucket.
	first := 1 + int64(sort.Search(int(rank-1), func(k int) bool { return at(int64(k)+1) >= low }))
	last := rank + int64(sort.Search(int(n-rank), func(k int) bool { return at(rank+int64(k)+1) > low }))
	high := bucketEnd(low)
	if top := h.Max(); high > top {
		high = top
	}
	return float64(low) + float64(high-low)*(float64(rank-first)+0.5)/float64(last-first+1)
}

// bucketEnd is the lower edge of the histogram bucket after the one
// starting at low: the smallest value a histogram reports above low. A
// two-sample histogram {1, x} reports x's bucket edge as its 99th
// percentile.
func bucketEnd(low int64) int64 {
	probe := stats.NewHistogram()
	edge := func(x int64) int64 {
		probe.Reset()
		probe.Record(1)
		probe.Record(x)
		return probe.Quantile(0.99)
	}
	// Buckets are at most 1/128 of their value wide, so the next edge
	// lies within (low, 2·low+2].
	return low + 1 + int64(sort.Search(int(low+2), func(k int) bool { return edge(low+1+int64(k)) > low }))
}
