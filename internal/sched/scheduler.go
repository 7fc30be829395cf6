package sched

import (
	"fmt"
	"slices"

	"repro/internal/rng"
	"repro/internal/sim"
)

// Scheduler owns the per-CPU runqueues and implements task placement,
// wakeups, and preemption policy.
type Scheduler struct {
	eng         *sim.Engine
	opts        BootOptions
	cpus        []*CPU
	tasks       []*Task
	rnd         *rng.Stream
	cstates     []CState
	autoIsolate bool

	// siblings maps each logical CPU to its hyper-thread sibling (-1 for
	// none); provided by the topology.
	siblings []int

	// TickWork, when set, returns the housekeeping cost charged on each
	// scheduler tick of a CPU (timer callbacks, vmstat, RCU unless
	// offloaded). The kernel package installs the policy.
	TickWork func(cpu int) sim.Duration

	// OnDispatch, when set, observes every dispatch (the trace package's
	// sched_switch probe).
	OnDispatch func(cpu int, t *Task)
}

// Config assembles a Scheduler.
type Config struct {
	NumCPUs  int
	Boot     BootOptions
	Siblings []int // optional HT sibling map
	Seed     uint64
	// AutoIsolateIOBound enables the prototype placement policy of the
	// paper's Section VI future work: unpinned (CPU-bound) tasks are kept
	// off CPUs that host I/O-bound pinned tasks, achieving the effect of
	// manual isolcpus without any configuration.
	AutoIsolateIOBound bool
}

// New builds a scheduler with idle CPUs and running ticks.
func New(eng *sim.Engine, cfg Config) *Scheduler {
	if cfg.NumCPUs <= 0 {
		panic("sched: NumCPUs must be positive")
	}
	if cfg.Boot.MaxCState < 0 {
		panic(fmt.Sprintf("sched: processor.max_cstate=%d is negative", cfg.Boot.MaxCState))
	}
	// The boot CPU lists are fixed for the scheduler's lifetime: resolve
	// them once into per-CPU flags, so the per-dispatch tick retune and
	// placement never scan them.
	isolated := bootSet("isolcpus", cfg.Boot.Isolcpus, cfg.NumCPUs)
	noHz := bootSet("nohz_full", cfg.Boot.NoHzFull, cfg.NumCPUs)
	rcuNocb := bootSet("rcu_nocbs", cfg.Boot.RCUNocbs, cfg.NumCPUs)
	s := &Scheduler{
		eng:         eng,
		opts:        cloneBoot(cfg.Boot),
		rnd:         rng.NewLabeled(cfg.Seed, "sched"),
		autoIsolate: cfg.AutoIsolateIOBound,
	}
	if cfg.Siblings != nil {
		if len(cfg.Siblings) != cfg.NumCPUs {
			panic("sched: sibling map length mismatch")
		}
		s.siblings = cfg.Siblings
	} else {
		s.siblings = make([]int, cfg.NumCPUs)
		for i := range s.siblings {
			s.siblings[i] = -1
		}
	}
	s.cstates = XeonCStates()
	for i := 0; i < cfg.NumCPUs; i++ {
		c := &CPU{id: i, s: s, cstate: -1,
			isolated: isolated[i], noHz: noHz[i], rcuNocb: rcuNocb[i]}
		c.burstTimer = eng.NewTimer()
		c.deepenTimer = eng.NewTimer()
		c.burstDoneFn = c.burstDone
		c.deepenFn = c.deepen
		c.stealDoneFn = c.stealDone
		s.cpus = append(s.cpus, c)
		c.enterIdle()
		c.startTick()
	}
	s.startBalancer()
	return s
}

// bootSet turns one boot option's CPU list into per-CPU membership,
// rejecting ids outside [0, n).
func bootSet(option string, ids []int, n int) []bool {
	in := make([]bool, n)
	for _, id := range ids {
		if id < 0 || id >= n {
			panic(fmt.Sprintf("sched: %s CPU %d out of range [0,%d)", option, id, n))
		}
		in[id] = true
	}
	return in
}

// cloneBoot copies b with private CPU lists, so no caller can change the
// lists Boot reports after New resolved them.
func cloneBoot(b BootOptions) BootOptions {
	b.Isolcpus = slices.Clone(b.Isolcpus)
	b.NoHzFull = slices.Clone(b.NoHzFull)
	b.RCUNocbs = slices.Clone(b.RCUNocbs)
	return b
}

func (s *Scheduler) siblingOf(cpu int) int { return s.siblings[cpu] }

// Boot reports the boot options in use. The CPU lists are copies.
func (s *Scheduler) Boot() BootOptions { return cloneBoot(s.opts) }

// RCUOffloaded reports whether cpu is in the rcu_nocbs set.
func (s *Scheduler) RCUOffloaded(cpu int) bool { return s.cpus[cpu].rcuNocb }

// NumCPUs reports the CPU count.
func (s *Scheduler) NumCPUs() int { return len(s.cpus) }

// CPU returns the CPU object (for stats and irq injection).
func (s *Scheduler) CPU(id int) *CPU { return s.cpus[id] }

// Wake makes a sleeping task runnable. The task must have a pending burst
// (Exec). Waking a runnable/running task is a no-op, like the kernel's
// try_to_wake_up.
func (s *Scheduler) Wake(t *Task) {
	if t.state != StateSleeping {
		return
	}
	if t.remaining <= 0 {
		panic(fmt.Sprintf("sched: waking task %q without a pending burst", t.Name))
	}
	t.wakes++
	c := s.selectRQ(t)
	if t.class == ClassCFS {
		if t.cpu >= 0 && t.cpu != c.id {
			// Cross-CPU wake migration rebases vruntime onto the target
			// runqueue (migrate_task_rq_fair): the task's history on the
			// old CPU does not count against it here. Combined with the
			// sleeper credit below, a CPU-bound daemon hopping onto an
			// "idle-looking" I/O CPU starts with a full head start —
			// the paper's default-configuration stall.
			t.vruntime = c.minVruntime - sleeperCredit
		}
		// place_entity: grant bounded sleeper credit so long sleepers do
		// not monopolize, but freshly woken tasks get a head start.
		floor := c.minVruntime - sleeperCredit
		if t.vruntime < floor {
			t.vruntime = floor
		}
	}
	if c.curr == nil && !c.stealing {
		// Idle CPU: charge the C-state exit latency to the dispatch.
		c.pendingExit += c.exitIdle()
		c.enqueue(t)
		c.schedule()
		return
	}
	c.enqueue(t)
	if c.shouldPreempt(t) && !c.stealing {
		c.preemptCurr()
		c.schedule()
	}
}

// dequeue removes a runnable task from its runqueue (used by Task.Sleep).
func (s *Scheduler) dequeue(t *Task) {
	if t.cpu >= 0 {
		if s.cpus[t.cpu].removeQueued(t) {
			return
		}
	}
	for _, c := range s.cpus {
		if c.removeQueued(t) {
			return
		}
	}
}

// selectRQ picks the CPU a waking task runs on (select_task_rq).
func (s *Scheduler) selectRQ(t *Task) *CPU {
	if len(t.affinity) > 0 {
		// Pinned: prefer an idle allowed CPU, then the last one, then the
		// least loaded allowed CPU.
		best := -1
		for _, id := range t.affinity {
			if s.cpus[id].Idle() {
				if id == t.cpu {
					return s.cpus[id]
				}
				if best < 0 {
					best = id
				}
			}
		}
		if best >= 0 {
			return s.cpus[best]
		}
		least := t.affinity[0]
		for _, id := range t.affinity[1:] {
			if s.cpus[id].NrRunnable() < s.cpus[least].NrRunnable() {
				least = id
			}
		}
		return s.cpus[least]
	}

	// Unpinned: never place on isolated CPUs, and — under the prototype
	// auto-isolation policy — avoid CPUs hosting I/O-bound pinned tasks.
	// Prefer the previous CPU if idle (cache warmth), else scan for an
	// idle CPU starting at a deterministic pseudo-random offset (mimicking
	// the kernel's lack of global ordering), else the least-loaded
	// candidate; CPUs excluded by auto-isolation are a last resort.
	if t.cpu >= 0 {
		if c := s.cpus[t.cpu]; !c.isolated && c.Idle() && !s.avoids(c) {
			return c
		}
	}
	n := len(s.cpus)
	start := s.rnd.Intn(n)
	var least, leastAvoided *CPU
	for i := 0; i < n; i++ {
		c := s.cpus[(start+i)%n]
		if c.isolated {
			continue
		}
		if s.avoids(c) {
			if leastAvoided == nil || c.NrRunnable() < leastAvoided.NrRunnable() {
				leastAvoided = c
			}
			continue
		}
		if c.Idle() {
			return c
		}
		if least == nil || c.NrRunnable() < least.NrRunnable() {
			least = c
		}
	}
	if least != nil {
		return least
	}
	if leastAvoided != nil {
		return leastAvoided
	}
	// Everything is isolated (degenerate config): CPU of last resort.
	return s.cpus[0]
}

// avoids reports whether the auto-isolation policy keeps unpinned
// wake-ups off c.
func (s *Scheduler) avoids(c *CPU) bool {
	return s.autoIsolate && c.HostsIOBound()
}

// Stats summarize scheduler activity.
type Stats struct {
	BusyTime   sim.Duration
	StolenTime sim.Duration
	Switches   int64
}

// TotalStats aggregates per-CPU counters.
func (s *Scheduler) TotalStats() Stats {
	var st Stats
	for _, c := range s.cpus {
		st.BusyTime += c.busyTime
		st.StolenTime += c.stolenTime
		st.Switches += c.switches
	}
	return st
}
