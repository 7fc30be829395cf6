package core

import (
	"fmt"

	"repro/internal/fio"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// RunSpec describes one measurement run on a booted system.
type RunSpec struct {
	// Geometry maps SSDs to CPUs; defaults to the Fig 5 layout.
	Geometry *topology.Geometry
	// Runtime per FIO instance (the paper uses 120 s). Zero takes fio's
	// default, 2 s, which at ~28 kIOPS/SSD still gives ~56 k samples per
	// device.
	Runtime sim.Duration
	// Workload defaults to randread here; fio fills the 4 KiB block and
	// QD1 defaults.
	RW      fio.RW
	BS      int
	IODepth int
	// LatLogSSDs enables fio latency logging on SSDs [0, LatLogSSDs).
	// The paper's footnote 1 logs only 32 of 64 for accuracy.
	LatLogSSDs int
	// Phases enables blktrace-style per-I/O latency decomposition on all
	// jobs.
	Phases bool
	// Warmup lets the system settle (daemons started, balancer run)
	// before measurement begins.
	Warmup sim.Duration
}

func (r RunSpec) withDefaults(s *System) RunSpec {
	if r.Geometry == nil {
		r.Geometry = topology.DefaultGeometry(s.Host, len(s.SSDs))
	}
	if r.RW == "" {
		r.RW = fio.RandRead
	}
	if r.Warmup == 0 {
		r.Warmup = 50 * sim.Millisecond
	}
	return r
}

// RunFIO executes one measurement run: one pinned FIO thread per active
// SSD in the geometry, configured per the system's Config. Results are
// indexed by SSD (nil for SSDs inactive in this geometry).
func (s *System) RunFIO(spec RunSpec) []*fio.Result {
	spec = spec.withDefaults(s)
	s.Eng.RunUntil(s.Eng.Now().Add(spec.Warmup))

	var jobs []fio.JobSpec
	for _, ssd := range spec.Geometry.ActiveSSDs() {
		js := fio.JobSpec{
			Name:        fmt.Sprintf("nvme%d", ssd),
			SSD:         ssd,
			RW:          spec.RW,
			BS:          spec.BS,
			IODepth:     spec.IODepth,
			Runtime:     spec.Runtime,
			CPUsAllowed: []int{spec.Geometry.ThreadCPU[ssd]},
			Class:       s.Config.FIOClass,
			RTPrio:      s.Config.FIORTPrio,
			Phases:      spec.Phases,
			Passthrough: s.Config.Passthrough,
			Seed:        s.Seed ^ uint64(ssd)<<32,
		}
		if ssd < spec.LatLogSSDs {
			js.LatLog = true
		}
		jobs = append(jobs, js)
	}
	grouped := fio.RunGroup(s.Eng, s.Kernel, jobs)

	out := make([]*fio.Result, len(s.SSDs))
	for _, r := range grouped {
		out[r.Spec.SSD] = r
	}
	return out
}

// Ladders extracts the per-SSD percentile ladders from run results,
// skipping inactive SSDs.
func Ladders(results []*fio.Result) []stats.Ladder {
	var out []stats.Ladder
	for _, r := range results {
		if r != nil {
			out = append(out, r.Ladder)
		}
	}
	return out
}

// Distribution is the per-figure output: one latency ladder per SSD plus
// the cross-SSD aggregate.
type Distribution struct {
	Config  string
	Ladders []stats.Ladder
	Summary stats.LadderSummary
}

// NewDistribution assembles a Distribution from run results.
func NewDistribution(cfg string, results []*fio.Result) Distribution {
	l := Ladders(results)
	return Distribution{Config: cfg, Ladders: l, Summary: stats.Summarize(l)}
}

// RunSeedSweep reruns a single-distribution experiment at n derived
// seeds (runner.Seeds: o.Seed, o.Seed+1, …) and returns the per-seed
// distributions in sweep order, each tagged "config#seed". The runs are
// independent systems and fan out across ExpOptions.Parallel workers —
// parallel seed sweeps are what make calibration experiments (e.g. the
// per-drive hedge-quantile study in ROADMAP.md) cheap. Any sweep run is
// reproducible by hand: position i is exactly the unswept experiment at
// `-seed o.Seed+i`.
func RunSeedSweep(o ExpOptions, n int, run func(ExpOptions) Distribution) []Distribution {
	o = o.withDefaults()
	return runner.Map(o.runnerOpts(), runner.Seeds(o.Seed, n), func(_ int, seed uint64) Distribution {
		so := o
		so.Seed = seed
		d := run(so)
		d.Config = fmt.Sprintf("%s#%d", d.Config, seed)
		return d
	})
}

// MergeSweep pools every per-seed ladder of a sweep into one
// distribution, so n seeds × m SSDs read as one n·m-device fleet — the
// cheap way to grow tail-percentile resolution without longer runs.
func MergeSweep(name string, ds []Distribution) Distribution {
	var ladders []stats.Ladder
	for _, d := range ds {
		ladders = append(ladders, d.Ladders...)
	}
	return Distribution{Config: name, Ladders: ladders, Summary: stats.Summarize(ladders)}
}
