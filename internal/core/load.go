// The load-vs-tail knee: an offered-load ladder of open-loop tenant
// traffic over the array. Closed-loop FIO jobs cannot see the knee —
// their arrival rate collapses with the service rate (coordinated
// omission), so a saturated array just reports lower IOPS at a gentle
// tail. The open-loop multiplexer keeps offering I/O at the configured
// rate no matter how far behind the array falls, which is what makes
// the hockey stick visible: below the knee, tail latency tracks the
// device; past it, queues grow for the rest of the run and the tail is
// set by the backlog, not the media.
//
// The ablation runs the same tenant population twice per rung: an
// "open" arm with no admission control, and an "admit" arm where the
// throughput and background classes are token-bucket-limited to a fixed
// budget provisioned from measured capacity. The question the ablation
// answers: can per-class admission keep the latency-sensitive class on
// the pre-knee part of the curve while the offered load crosses 100%?

package core

import (
	"fmt"
	"io"

	"repro/internal/fio"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// loadFracs are the ladder rungs as fractions of measured capacity:
// four pre-knee points, then a dense sweep across the knee region.
var loadFracs = []float64{0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.1, 1.2}

const (
	// loadTenantsPerSSD sets the tenant population (× NumSSDs). The mix
	// is deterministic in the tenant index: 20% latency-sensitive
	// Poisson, 50% throughput MMPP, 30% background diurnal.
	loadTenantsPerSSD = 16
	// loadProbeQD is the closed-loop queue depth of the capacity probe.
	loadProbeQD = 8
	// Admission budgets of the "admit" arm, as fractions of measured
	// capacity: the throughput class is throttled (backpressure) at its
	// budget and the background class is shed outright, so the total
	// admitted rate stays below the knee even at 120% offered. The
	// latency-sensitive class is never gated — protecting it is the
	// point.
	admitTPShare = 0.40
	admitBGShare = 0.08
)

// Per-class shares of the offered load.
var loadClassShare = [kernel.NumQoSClasses]float64{
	kernel.ClassLatency:    0.2,
	kernel.ClassThroughput: 0.5,
	kernel.ClassBackground: 0.3,
}

// loadClassOf deterministically assigns tenant i its QoS class.
func loadClassOf(i int) kernel.QoSClass {
	switch m := i % 10; {
	case m < 2:
		return kernel.ClassLatency
	case m < 7:
		return kernel.ClassThroughput
	default:
		return kernel.ClassBackground
	}
}

// MeasureCapacity probes the array's closed-loop saturation throughput:
// one pinned FIO thread per SSD at QD loadProbeQD, summed across the
// fleet. This is the "100%" the load ladder is scaled against.
func MeasureCapacity(o ExpOptions) float64 {
	probe := arm{name: "capacity", cfg: IRQAffinity(), load: fleet{spec: RunSpec{IODepth: loadProbeQD}}}
	return runArm(o, probe).fio.IOPS
}

// LoadRun is one (rung, arm) cell of the load ablation: the
// multiplexer's result (Total is measured from each arrival's intended
// instant, coordinated omission included) plus where the cell sits on
// the ladder.
type LoadRun struct {
	fio.MuxResult
	// Arm is "open" (no admission) or "admit" (class budgets armed).
	Arm string
	// Frac is the offered load as a fraction of measured capacity;
	// OfferedRate is the same in I/Os per second.
	Frac        float64
	OfferedRate float64
}

// LoadAblation is the full rung × arm grid plus the capacity it was
// scaled against.
type LoadAblation struct {
	// Capacity is the closed-loop probe result in I/Os per second.
	Capacity float64
	// Runs holds the "open" arm at every rung, then the "admit" arm at
	// every rung (use Arm/Frac rather than position).
	Runs []LoadRun
}

// loadMuxConfig assembles the multiplexer for one rung: admission
// budgets are fixed absolute rates provisioned from capacity (they do
// not scale with the rung — an operator provisions once).
func loadMuxConfig(name, admission string, capacity float64, sys *System, runtime sim.Duration, seed uint64) fio.MuxConfig {
	cfg := fio.MuxConfig{
		Name:    name,
		Runtime: runtime,
		Seed:    seed,
		CPUs:    sys.Host.WorkloadCPUs(),
	}
	if admission == "admit" {
		cfg.Class[kernel.ClassThroughput] = fio.ClassConfig{
			Rate:   admitTPShare * capacity,
			Policy: fio.AdmitThrottle,
		}
		cfg.Class[kernel.ClassBackground] = fio.ClassConfig{
			Rate:   admitBGShare * capacity,
			Policy: fio.AdmitShed,
		}
	}
	return cfg
}

// addLoadTenants populates the mux with the standard tenant mix at a
// total offered rate of `offered` I/Os per second, spread round-robin
// across the SSDs. Latency-sensitive tenants are Poisson readers,
// throughput tenants bursty MMPP readers, background tenants diurnal
// writers.
func addLoadTenants(m *fio.Multiplexer, numSSDs int, offered float64) {
	n := numSSDs * loadTenantsPerSSD
	var counts [kernel.NumQoSClasses]int
	for i := 0; i < n; i++ {
		counts[loadClassOf(i)]++
	}
	var perTenant [kernel.NumQoSClasses]float64
	for c := range perTenant {
		if counts[c] > 0 {
			perTenant[c] = loadClassShare[c] * offered / float64(counts[c])
		}
	}
	for i := 0; i < n; i++ {
		class := loadClassOf(i)
		spec := fio.TenantSpec{SSD: i % numSSDs, Class: class}
		switch class {
		case kernel.ClassLatency:
			spec.RW = fio.RandRead
			spec.Arrival = fio.ArrivalSpec{Kind: fio.ArrivalPoisson, Rate: perTenant[class]}
		case kernel.ClassThroughput:
			spec.RW = fio.RandRead
			spec.Arrival = fio.ArrivalSpec{Kind: fio.ArrivalMMPP, Rate: perTenant[class]}
		case kernel.ClassBackground:
			spec.RW = fio.RandWrite
			spec.Arrival = fio.ArrivalSpec{Kind: fio.ArrivalDiurnal, Rate: perTenant[class]}
		default:
			panic("core: unhandled QoS class in tenant mix")
		}
		m.AddTenant(spec)
	}
}

// tenants is the open-loop workload: the standard tenant mix at frac ×
// capacity offered load on one arm, "open", or "admit" with the
// admission budgets. Capacity 0 probes it first at the run's own seed.
type tenants struct {
	admission      string
	frac, capacity float64
}

func (t tenants) run(o ExpOptions, sys *System, name string) armRun {
	capacity := t.capacity
	if capacity == 0 {
		capacity = MeasureCapacity(o)
	}
	// Settle the system (daemons started, balancer run) like RunFIO's
	// warmup before arrivals begin.
	sys.Eng.RunUntil(sys.Eng.Now().Add(50 * sim.Millisecond))
	m := fio.NewMultiplexer(sys.Eng, sys.Kernel, loadMuxConfig(name, t.admission, capacity, sys, o.Runtime, o.Seed))
	offered := t.frac * capacity
	addLoadTenants(m, len(sys.SSDs), offered)
	run := LoadRun{MuxResult: *m.Run(), Arm: t.admission, Frac: t.frac, OfferedRate: offered}
	ladders := make([]stats.Ladder, 0, kernel.NumQoSClasses)
	for c := range run.Class {
		ladders = append(ladders, run.Class[c].Ladder)
	}
	return armRun{mux: run, ladders: ladders, end: sys.Eng.Now()}
}

// loadGrid is the rung × arm grid against capacity (0: each run probes
// its own), arm-major, each cell named load-<arm>-<percent>. A seed
// sweep reruns a cell as "load-ladder".
func loadGrid(capacity float64) grid {
	g := grid{rerun: "load-ladder"}
	for _, admission := range []string{"open", "admit"} {
		for _, f := range loadFracs {
			g.arms = append(g.arms, arm{
				name: fmt.Sprintf("load-%s-%d", admission, int(float64(f*100)+0.5)),
				cfg:  IRQAffinity(),
				load: tenants{admission: admission, frac: f, capacity: capacity},
			})
		}
	}
	return g
}

// RunLoadAblation measures the load-vs-tail curve: the capacity probe
// runs first (serially — every rung is scaled against the same number),
// then the rung × arm grid fans out across o.Parallel workers. Each
// cell is an independent boot; all multiplexer state is built inside
// the worker.
func RunLoadAblation(o ExpOptions) LoadAblation {
	capacity := MeasureCapacity(o)
	runs := loadGrid(capacity).run(o)
	return LoadAblation{Capacity: capacity, Runs: each(runs, func(r armRun) LoadRun { return r.mux })}
}

// Knee locates the hockey stick in one arm: the pre-knee baseline is
// the p99 of the lowest rung, and the knee is the first rung whose p99
// is at least 5× that baseline. ok is false if the arm never crosses
// (the admission arm shouldn't).
func (a LoadAblation) Knee(arm string) (frac float64, ratio float64, ok bool) {
	var base float64
	first := true
	for _, r := range a.Runs {
		if r.Arm != arm {
			continue
		}
		p99 := r.Total.Rung(1)
		if first {
			base = p99
			first = false
			continue
		}
		if base > 0 && p99 >= 5*base {
			return r.Frac, p99 / base, true
		}
	}
	return 0, 0, false
}

// WriteLoadAblation renders the grid: per-arm rung tables (arrival
// accounting plus the total and latency-sensitive ladders), then the
// knee verdict.
func WriteLoadAblation(w io.Writer, a LoadAblation) {
	fmt.Fprintf(w, "capacity %.0f IOPS (closed-loop QD%d probe)\n", a.Capacity, loadProbeQD)
	for _, arm := range []string{"open", "admit"} {
		fmt.Fprintf(w, "\n%s arm:\n", arm)
		fmt.Fprintf(w, "%6s %10s %10s %10s %8s %9s %12s %12s %12s %14s\n",
			"load", "offered", "admitted", "completed", "shed", "throttled",
			"p99(µs)", "p99.9(µs)", "max(µs)", "LS-p99.9(µs)")
		for _, r := range a.Runs {
			if r.Arm != arm {
				continue
			}
			ls := r.Class[kernel.ClassLatency].Ladder
			fmt.Fprintf(w, "%5.0f%% %10d %10d %10d %8d %9d %12.1f %12.1f %12.1f %14.1f\n",
				r.Frac*100, r.Offered, r.Admitted, r.Completed, r.Shed(), r.Throttled(),
				r.Total.Rung(1)/1e3, r.Total.Rung(2)/1e3, r.Total.Rung(6)/1e3,
				ls.Rung(2)/1e3)
		}
	}
	fmt.Fprintln(w)
	if frac, ratio, ok := a.Knee("open"); ok {
		fmt.Fprintf(w, "open-arm knee at %.0f%% load (p99 %.1f× the lowest rung)\n", frac*100, ratio)
	} else {
		fmt.Fprintf(w, "open arm never crossed the 5× knee threshold\n")
	}
	if frac, ratio, ok := a.Knee("admit"); ok {
		fmt.Fprintf(w, "admit-arm knee at %.0f%% load (p99 %.1f× the lowest rung)\n", frac*100, ratio)
	} else {
		fmt.Fprintf(w, "admit arm stayed below the 5× knee threshold across the ladder\n")
	}
}
