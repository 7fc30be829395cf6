package kernel

import (
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
)

// DaemonSpec describes one background process's behaviour: it sleeps for
// an exponentially distributed interval, wakes, and executes a session of
// CPU bursts. Daemons run in CFS at nice 0 and are never pinned: the
// scheduler may place them on any CPU the boot options leave open, which
// is the problematic case.
type DaemonSpec struct {
	Name string
	// SleepMean is the mean time between activity sessions.
	SleepMean sim.Duration
	// BurstMean/BurstSigma parameterize the lognormal burst length.
	BurstMean  sim.Duration
	BurstSigma float64
	// BurstsPerSession is how many bursts one wake executes.
	BurstsPerSession int
	// NoScale excludes the daemon from ScaleDaemonPeriods: its activity is
	// frequent (frame-rate, not rare), so time compression of short runs
	// must not distort it.
	NoScale bool
}

// DefaultDaemons returns the background population the paper observed
// interfering with FIO on the CentOS 7 testbed (Section IV-B): the GNOME
// GUI's software rasterizer, the LTTng trace consumer, SSH, and assorted
// kernel workers. Calibrated so that, under the default configuration,
// multi-millisecond CFS stalls hit each workload CPU every few seconds —
// rare enough to surface only at and beyond the 5-nines percentile, as in
// Fig 6.
func DefaultDaemons() []DaemonSpec {
	return []DaemonSpec{
		// GNOME's software rasterizer renders frames continuously; each
		// frame is a multi-millisecond CPU burst landing on whatever CPU
		// looks idle — under the default configuration that is usually a
		// CPU hosting a (mostly sleeping) FIO thread.
		{Name: "llvmpipe", SleepMean: 16 * sim.Millisecond, BurstMean: 3 * sim.Millisecond,
			BurstSigma: 0.5, BurstsPerSession: 1, NoScale: true},
		{Name: "lttng-consumerd", SleepMean: 800 * sim.Millisecond, BurstMean: 400 * sim.Microsecond,
			BurstSigma: 0.6, BurstsPerSession: 2},
		{Name: "sshd", SleepMean: 1500 * sim.Millisecond, BurstMean: 80 * sim.Microsecond,
			BurstSigma: 0.5, BurstsPerSession: 1},
		{Name: "systemd-journald", SleepMean: 900 * sim.Millisecond, BurstMean: 150 * sim.Microsecond,
			BurstSigma: 0.6, BurstsPerSession: 1},
		{Name: "kworker/u80:1", SleepMean: 250 * sim.Millisecond, BurstMean: 180 * sim.Microsecond,
			BurstSigma: 0.7, BurstsPerSession: 1},
		{Name: "kworker/u80:2", SleepMean: 400 * sim.Millisecond, BurstMean: 220 * sim.Microsecond,
			BurstSigma: 0.7, BurstsPerSession: 1},
		{Name: "gnome-shell", SleepMean: 3 * sim.Second, BurstMean: 2 * sim.Millisecond,
			BurstSigma: 0.6, BurstsPerSession: 2},
		{Name: "tuned", SleepMean: 5 * sim.Second, BurstMean: 500 * sim.Microsecond,
			BurstSigma: 0.5, BurstsPerSession: 1},
	}
}

// ScaleDaemonPeriods returns a copy of the specs with every SleepMean
// multiplied by factor. Experiment harnesses use it to time-compress rare
// background activity into short runs: a run of T seconds with factor
// T/120 s experiences as many daemon sessions per CPU as the paper's 120 s
// run, with unchanged burst magnitudes.
func ScaleDaemonPeriods(specs []DaemonSpec, factor float64) []DaemonSpec {
	out := make([]DaemonSpec, len(specs))
	for i, s := range specs {
		if !s.NoScale {
			s.SleepMean = sim.Duration(float64(s.SleepMean) * factor)
			if s.SleepMean < 10*sim.Millisecond {
				s.SleepMean = 10 * sim.Millisecond
			}
		}
		out[i] = s
	}
	return out
}

// Daemon is a running background process.
type Daemon struct {
	Spec DaemonSpec
	task *sched.Task
	k    *Kernel
	rnd  *rng.Stream

	burstsLeft int
	sessions   int64
	stopped    bool

	// wake/burstDone bound once so the sleep→wake→burst cycle doesn't
	// allocate a method-value closure per session.
	wakeFn      func()
	burstDoneFn func()
}

// StartDaemons launches the given background population. Call once.
func (k *Kernel) StartDaemons(specs []DaemonSpec) {
	for _, spec := range specs {
		d := &Daemon{
			Spec: spec,
			k:    k,
			rnd:  k.rnd.Derive("daemon-" + spec.Name),
		}
		d.task = k.Sched.NewTask(spec.Name, sched.ClassCFS, 0, nil)
		d.wakeFn = d.wake
		d.burstDoneFn = d.burstDone
		k.daemons = append(k.daemons, d)
		d.scheduleWake()
	}
}

// Daemons lists the running background processes.
func (k *Kernel) Daemons() []*Daemon { return k.daemons }

// Sessions reports how many activity sessions the daemon has run.
func (d *Daemon) Sessions() int64 { return d.sessions }

// Stop prevents future sessions (current one finishes).
func (d *Daemon) Stop() { d.stopped = true }

func (d *Daemon) scheduleWake() {
	if d.stopped {
		return
	}
	delay := sim.Duration(d.rnd.Exp(float64(d.Spec.SleepMean)))
	if delay < sim.Millisecond {
		delay = sim.Millisecond
	}
	d.k.eng.Schedule(delay, d.wakeFn)
}

func (d *Daemon) wake() {
	if d.stopped {
		return
	}
	d.sessions++
	d.burstsLeft = d.Spec.BurstsPerSession
	d.task.Exec(d.burstLen(), d.burstDoneFn)
	d.k.Sched.Wake(d.task)
}

func (d *Daemon) burstLen() sim.Duration {
	l := sim.Duration(d.rnd.LogNormalMean(float64(d.Spec.BurstMean), d.Spec.BurstSigma))
	if l < 10*sim.Microsecond {
		l = 10 * sim.Microsecond
	}
	return l
}

func (d *Daemon) burstDone() {
	d.burstsLeft--
	if d.burstsLeft > 0 {
		d.task.Exec(d.burstLen(), d.burstDoneFn)
		return
	}
	// Session over: implicit sleep; arrange the next one.
	d.scheduleWake()
}
