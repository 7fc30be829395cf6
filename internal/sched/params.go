// Package sched models the Linux 4.x CPU scheduler closely enough to
// reproduce the paper's observations:
//
//   - CFS with per-entity vruntime, sleeper credit on wakeup
//     (place_entity), wakeup-preemption granularity, and
//     latency-target-derived timeslices. The paper's 5 ms worst-case
//     latency under the default configuration arises exactly here: a
//     freshly woken CPU-bound daemon holds sleeper credit, so an I/O
//     thread's wakeup fails the preemption check and waits out most of
//     the daemon's slice.
//   - SCHED_FIFO (chrt -f 99), which preempts any CFS task immediately —
//     the paper's first knob (Section IV-B).
//   - Boot options isolcpus / nohz_full / rcu_nocbs / idle=poll /
//     processor.max_cstate (Section IV-C): isolated CPUs are excluded
//     from placement of unpinned tasks, drop to a 1 Hz tick when they
//     have at most one runnable task, host no RCU callback work, and
//     skip C-state entry/exit.
//   - Interrupt "time stealing": hardirq/softirq work interrupts the
//     running task and delays its burst; the irq package injects those.
//   - Idle C-states with exit latency, entered progressively the longer a
//     CPU stays idle.
package sched

import "repro/internal/sim"

// The scheduler tunables: Linux 4.7 defaults scaled for a 40-CPU
// machine.
const (
	// hzTickPeriod is the periodic scheduler tick (CONFIG_HZ=1000 → 1 ms).
	hzTickPeriod = sim.Millisecond
	// noHzTickPeriod is the residual 1 Hz tick on nohz_full CPUs.
	noHzTickPeriod = sim.Second
	// schedLatency is the CFS latency target (period with few tasks).
	schedLatency = 6 * sim.Millisecond
	// minGranularity floors a task's slice.
	minGranularity = 750 * sim.Microsecond
	// wakeupGranularity is the vruntime advantage a waking task needs
	// before it may preempt the current CFS task.
	wakeupGranularity = sim.Millisecond
	// sleeperCredit caps the vruntime credit granted to a waking task
	// (place_entity subtracts sched_latency/2 in "gentle" mode).
	sleeperCredit = 3 * sim.Millisecond
	// ctxSwitch is the direct cost of a context switch.
	ctxSwitch = 1500 * sim.Nanosecond
	// coldCachePenalty is extra first-burst time after the task lost the
	// CPU to someone else (cache refill).
	coldCachePenalty = 1800 * sim.Nanosecond
	// migrationPenalty is extra first-burst time after cross-CPU
	// migration.
	migrationPenalty = 3500 * sim.Nanosecond
	// htContentionFactor inflates burst time (per mille) when the
	// hyper-thread sibling is busy at burst start; 250 = +25%.
	htContentionFactor = 250
)

// BootOptions model the kernel command line of Section IV-C.
type BootOptions struct {
	// Isolcpus excludes the listed CPUs from scheduler placement of
	// unpinned tasks (isolcpus=).
	Isolcpus []int
	// NoHzFull stops the periodic tick on the listed CPUs while they run
	// at most one task (nohz_full=).
	NoHzFull []int
	// RCUNocbs offloads RCU callback work from the listed CPUs
	// (rcu_nocbs=). The kernel package consults this when injecting
	// housekeeping work.
	RCUNocbs []int
	// IdlePoll spins the idle loop instead of entering C-states
	// (idle=poll).
	IdlePoll bool
	// MaxCState caps the deepest C-state (processor.max_cstate=1 keeps
	// exit latency at the C1 level).
	MaxCState int
}

// CState describes one idle state of the CPU.
type CState struct {
	Name string
	// Residency is how long the CPU must have been idle before the
	// governor promotes it into this state.
	Residency sim.Duration
	// ExitLatency is paid when a wakeup arrives while in this state.
	ExitLatency sim.Duration
}

// XeonCStates returns the modeled C-state table (C0 is implicit).
func XeonCStates() []CState {
	return []CState{
		{Name: "C1", Residency: 0, ExitLatency: 2 * sim.Microsecond},
		{Name: "C3", Residency: 100 * sim.Microsecond, ExitLatency: 60 * sim.Microsecond},
		{Name: "C6", Residency: 600 * sim.Microsecond, ExitLatency: 130 * sim.Microsecond},
	}
}
