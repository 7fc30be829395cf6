package sched

import (
	"fmt"

	"repro/internal/sim"
)

// Class is the scheduling class of a task.
type Class int

const (
	// ClassCFS is the completely fair scheduler (SCHED_OTHER).
	ClassCFS Class = iota
	// ClassFIFO is the real-time FIFO class (SCHED_FIFO, what
	// `chrt -f <prio>` assigns).
	ClassFIFO
)

func (c Class) String() string {
	if c == ClassFIFO {
		return "SCHED_FIFO"
	}
	return "SCHED_OTHER"
}

// State is a task's scheduling state.
type State int

const (
	// StateSleeping means blocked, waiting for a Wake.
	StateSleeping State = iota
	// StateRunnable means enqueued on a runqueue.
	StateRunnable
	// StateRunning means currently executing on a CPU.
	StateRunning
)

func (s State) String() string {
	switch s {
	case StateSleeping:
		return "sleeping"
	case StateRunnable:
		return "runnable"
	default:
		return "running"
	}
}

// Task is a schedulable entity: an FIO thread, a background daemon, a
// kernel worker. Tasks execute "bursts" of CPU time; between bursts they
// either continue (Exec from the burst callback) or block (Sleep) until an
// external Wake.
type Task struct {
	ID   int
	Name string

	class  Class
	rtprio int // FIFO priority 1..99

	// Affinity restricts placement (FIO's cpus_allowed, IRQ pinning).
	// Empty = any CPU.
	affinity []int

	sched *Scheduler
	state State
	cpu   int // current or last CPU

	vruntime   sim.Duration
	sliceStart sim.Time // when the current on-CPU stretch began

	remaining   sim.Duration // CPU time left in current burst
	onDone      func()
	extraNext   sim.Duration // one-shot penalty added to next dispatch (cold cache, IPI)
	everRan     bool
	firstRunAt  sim.Time
	lastSleep   sim.Time
	lastOffCPU  sim.Time
	wokenAt     sim.Time
	wakes       int64
	ctxSwitches int64
	runTime     sim.Duration

	// lastRanHere[cpu] is not tracked per-CPU; cold cache is approximated
	// by "someone else ran since I did" per CPU in the CPU struct.
}

// NewTask registers a task with the scheduler. It starts sleeping.
// prio is the SCHED_FIFO priority (chrt -f); CFS tasks ignore it and run
// at nice 0, the only nice value the model uses.
func (s *Scheduler) NewTask(name string, class Class, prio int, affinity []int) *Task {
	t := &Task{
		ID:       len(s.tasks),
		Name:     name,
		class:    class,
		sched:    s,
		state:    StateSleeping,
		cpu:      -1,
		affinity: append([]int(nil), affinity...),
	}
	if class == ClassFIFO {
		if prio < 1 || prio > 99 {
			panic(fmt.Sprintf("sched: FIFO priority %d out of 1..99", prio))
		}
		t.rtprio = prio
	}
	s.tasks = append(s.tasks, t)
	if len(t.affinity) == 1 {
		// Exclusively pinned: register as a home task so the
		// auto-isolation policy can classify the CPU.
		home := s.cpus[t.affinity[0]]
		home.homeTasks = append(home.homeTasks, t)
	}
	return t
}

// Class reports the scheduling class.
func (t *Task) Class() Class { return t.class }

// State reports the current scheduling state.
func (t *Task) State() State { return t.state }

// CPU reports the CPU the task is running on (or last ran on; -1 if never).
func (t *Task) CPU() int { return t.cpu }

// RunTime reports total CPU time consumed.
func (t *Task) RunTime() sim.Duration { return t.runTime }

// CtxSwitches reports how many times the task was switched in.
func (t *Task) CtxSwitches() int64 { return t.ctxSwitches }

// Wakes reports how many sleep→runnable transitions the task has made.
func (t *Task) Wakes() int64 { return t.wakes }

// IOBound is the heuristic classification the auto-isolation policy
// (Section VI's "better CPU scheduling algorithm") uses: a task that wakes
// frequently yet consumes a small fraction of wall time is I/O-bound.
func (t *Task) IOBound(now sim.Time) bool {
	if !t.everRan || t.wakes < 50 {
		return false
	}
	wall := now.Sub(t.firstRunAt)
	if wall <= 0 {
		return false
	}
	return float64(t.runTime)/float64(wall) < 0.35
}

// Exec arranges for the task's next burst: dur of CPU time, then fn runs
// (in scheduler context). Calling Exec while a burst is pending replaces
// it; typical use is from the previous burst's fn or before a Wake.
func (t *Task) Exec(dur sim.Duration, fn func()) {
	if dur <= 0 {
		panic("sched: Exec with non-positive duration")
	}
	if t.state == StateRunning {
		panic("sched: Exec on running task (call from burst callback only)")
	}
	t.remaining = dur
	t.onDone = fn
}

// AddPenalty adds one-shot extra time to the task's next dispatch; the irq
// package uses this for remote-completion IPI and cache-pollution costs.
func (t *Task) AddPenalty(d sim.Duration) {
	if d > 0 {
		t.extraNext += d
	}
}

// Sleep blocks the task (must be called from its burst callback, or while
// the task is runnable but not running).
func (t *Task) Sleep() {
	switch t.state {
	case StateSleeping:
		return
	case StateRunnable:
		t.sched.dequeue(t)
	case StateRunning:
		// The scheduler handles the transition after the burst callback.
		panic("sched: Sleep on running task outside burst completion")
	}
	t.state = StateSleeping
	t.lastSleep = t.sched.eng.Now()
}
