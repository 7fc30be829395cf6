package sched

import "repro/internal/sim"

// Periodic load balancing: wake-time placement alone leaves long-running
// runnable tasks stacked wherever they happened to land, so — like the
// kernel's load_balance — idle (and under-loaded) CPUs periodically pull
// queued tasks from the busiest runqueue. Migration respects task
// affinity, isolcpus, and the auto-isolation policy, and the migrated
// task pays the migration penalty at its next dispatch.

// balancePeriod is how often the rebalance pass runs (the kernel scales
// this with domain size; a flat few-ms period is enough for the model).
const balancePeriod = 4 * sim.Millisecond

// startBalancer arms the periodic pass. Called from New.
func (s *Scheduler) startBalancer() {
	sim.NewTicker(s.eng, balancePeriod, func(sim.Time) { s.rebalance() })
}

// rebalance performs one pass: under-loaded, non-isolated CPUs pull one
// queued CFS task from the busiest pullable runqueue. An idle CPU always
// pulls; a busy CPU with exactly one task less than the source pulls only
// occasionally — the stochastic "bounce" that gives three hogs on two
// CPUs their long-run fair 2/3 share, as PELT-driven balancing does.
func (s *Scheduler) rebalance() {
	for _, dst := range s.cpus {
		if dst.isolated {
			continue
		}
		if s.autoIsolate && dst.HostsIOBound() {
			continue
		}
		src := s.busiest(dst)
		if src == nil {
			continue
		}
		diff := src.NrRunnable() - dst.NrRunnable()
		switch {
		case dst.Idle():
			// always pull
		case diff >= 2:
			// clearly imbalanced: pull
		case diff == 1 && len(src.cfs) > 0:
			if !s.rnd.Bool(0.25) {
				continue
			}
		default:
			continue
		}
		t := src.stealQueued(dst)
		if t == nil {
			continue
		}
		// Re-place the stolen task on dst: rebase vruntime without sleeper
		// credit (it did not sleep; it was merely waiting).
		t.vruntime = dst.minVruntime
		if dst.Idle() {
			dst.pendingExit += dst.exitIdle()
		}
		dst.enqueue(t)
		dst.schedule()
	}
}

// busiest finds the CPU with the deepest CFS queue holding at least one
// task beyond its runner.
func (s *Scheduler) busiest(dst *CPU) *CPU {
	var best *CPU
	for _, c := range s.cpus {
		if c == dst || len(c.cfs) == 0 {
			continue
		}
		if best == nil || len(c.cfs) > len(best.cfs) {
			best = c
		}
	}
	if best != nil && best.NrRunnable() < 2 {
		return nil
	}
	return best
}

// taskHotWindow is how recently a task must have run to count as
// cache-hot and be exempt from migration (the kernel's task_hot check).
const taskHotWindow = 5 * sim.Millisecond

// cacheNiceTries is how many consecutive hot-only failures a source
// tolerates before migrating a hot task anyway (sd->cache_nice_tries).
const cacheNiceTries = 3

// stealQueued removes one migratable CFS task from c's queue for dst,
// preferring cache-cold tasks; after repeated failures it takes a hot one
// (persistent imbalance beats cache warmth).
func (c *CPU) stealQueued(dst *CPU) *Task {
	now := c.s.eng.Now()
	allowHot := c.balanceFailed >= cacheNiceTries
	hotOnly := false
	for i, t := range c.cfs {
		if !t.canRunOn(dst.id) {
			continue
		}
		if !allowHot && t.everRan && now.Sub(t.lastOffCPU) < taskHotWindow {
			hotOnly = true
			continue // cache-hot: leave it where its data is
		}
		c.cfs = append(c.cfs[:i], c.cfs[i+1:]...)
		c.retuneTick()
		c.balanceFailed = 0
		return t
	}
	if hotOnly {
		c.balanceFailed++
	}
	return nil
}

// canRunOn checks the task's affinity mask.
func (t *Task) canRunOn(cpu int) bool {
	if len(t.affinity) == 0 {
		return true
	}
	for _, id := range t.affinity {
		if id == cpu {
			return true
		}
	}
	return false
}
