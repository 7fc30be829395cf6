package sched

import (
	"repro/internal/sim"
)

// stealItem is queued interrupt work on a CPU.
type stealItem struct {
	dur sim.Duration
	fn  func()
}

// CPU is one logical CPU with its runqueues, tick, and idle state.
type CPU struct {
	id int
	s  *Scheduler

	// Membership in the isolcpus, nohz_full and rcu_nocbs boot sets,
	// resolved once by New.
	isolated, noHz, rcuNocb bool

	curr         *Task
	burstStart   sim.Time
	burstPlanned sim.Duration
	burstTimer   *sim.Timer // reused for every dispatch's completion
	burstArmed   bool
	overhead     sim.Duration // ctx + penalties + idle exit folded into current dispatch
	htMult       int          // per-mille multiplier applied to task time this dispatch

	cfs []*Task // runnable CFS tasks (excluding curr), unordered
	rt  []*Task // runnable FIFO tasks (excluding curr), FIFO order

	minVruntime sim.Duration

	tick *sim.Ticker

	stealing bool
	stealQ   []stealItem
	stealCur stealItem // item whose steal window is in flight

	// burstDone/deepen/stealDone bound once at construction: dispatch and
	// interrupt stealing run per I/O, and a fresh method-value closure per
	// event would dominate the allocation profile.
	burstDoneFn func()
	deepenFn    func()
	stealDoneFn func()

	idleSince   sim.Time
	cstate      int          // -1 active/poll, else index into cstates
	deepenTimer *sim.Timer   // reused for every C-state promotion
	pendingExit sim.Duration // C-state exit latency to charge on next dispatch

	busyTime   sim.Duration
	stolenTime sim.Duration
	switches   int64
	lastTask   *Task

	// homeTasks are tasks pinned exclusively to this CPU; the
	// auto-isolation policy consults their I/O-boundness.
	homeTasks []*Task

	// balanceFailed counts consecutive load-balance attempts that found
	// only cache-hot candidates on this CPU (sd->nr_balance_failed).
	balanceFailed int
}

// HostsIOBound reports whether any task pinned to this CPU currently
// classifies as I/O-bound.
func (c *CPU) HostsIOBound() bool {
	now := c.s.eng.Now()
	for _, t := range c.homeTasks {
		if t.IOBound(now) {
			return true
		}
	}
	return false
}

// ID reports the CPU number.
func (c *CPU) ID() int { return c.id }

// NrRunnable counts runnable tasks including the running one.
func (c *CPU) NrRunnable() int {
	n := len(c.cfs) + len(c.rt)
	if c.curr != nil {
		n++
	}
	return n
}

// BusyTime reports cumulative task execution time on this CPU.
func (c *CPU) BusyTime() sim.Duration { return c.busyTime }

// StolenTime reports cumulative interrupt/tick time on this CPU.
func (c *CPU) StolenTime() sim.Duration { return c.stolenTime }

// Switches reports the number of dispatches.
func (c *CPU) Switches() int64 { return c.switches }

// Idle reports whether the CPU has nothing to run.
func (c *CPU) Idle() bool { return c.curr == nil && c.NrRunnable() == 0 && !c.stealing }

// ---- runqueue operations ----

func (c *CPU) enqueue(t *Task) {
	t.state = StateRunnable
	t.wokenAt = c.s.eng.Now()
	if t.class == ClassFIFO {
		c.rt = append(c.rt, t)
	} else {
		c.cfs = append(c.cfs, t)
	}
	c.retuneTick()
}

// removeQueued removes t from the queues if present.
func (c *CPU) removeQueued(t *Task) bool {
	q := &c.cfs
	if t.class == ClassFIFO {
		q = &c.rt
	}
	for i, x := range *q {
		if x == t {
			*q = append((*q)[:i], (*q)[i+1:]...)
			c.retuneTick()
			return true
		}
	}
	return false
}

// pickNext chooses the next task to run: highest-priority FIFO first (FIFO
// within a priority), else the CFS task with minimum vruntime.
func (c *CPU) pickNext() *Task {
	if len(c.rt) > 0 {
		best := 0
		for i, t := range c.rt {
			if t.rtprio > c.rt[best].rtprio {
				best = i
			}
		}
		t := c.rt[best]
		c.rt = append(c.rt[:best], c.rt[best+1:]...)
		c.retuneTick()
		return t
	}
	if len(c.cfs) > 0 {
		best := 0
		for i, t := range c.cfs {
			if t.vruntime < c.cfs[best].vruntime {
				best = i
			}
		}
		t := c.cfs[best]
		c.cfs = append(c.cfs[:best], c.cfs[best+1:]...)
		c.retuneTick()
		return t
	}
	return nil
}

// leftmostVruntime reports the smallest queued CFS vruntime, or false.
func (c *CPU) leftmostVruntime() (sim.Duration, bool) {
	if len(c.cfs) == 0 {
		return 0, false
	}
	min := c.cfs[0].vruntime
	for _, t := range c.cfs[1:] {
		if t.vruntime < min {
			min = t.vruntime
		}
	}
	return min, true
}

// updateMinVruntime keeps the monotonic per-rq min_vruntime used for
// sleeper placement.
func (c *CPU) updateMinVruntime() {
	v := c.minVruntime
	if c.curr != nil && c.curr.class == ClassCFS {
		if c.curr.vruntime > v {
			v = c.curr.vruntime
		}
	}
	if lv, ok := c.leftmostVruntime(); ok && c.curr == nil {
		// With only queued tasks the floor follows the leftmost.
		if lv > v {
			v = lv
		}
	}
	c.minVruntime = v
}

// slice computes the CFS timeslice for the current load (sched_latency /
// nr_running, floored at min_granularity).
func (c *CPU) slice() sim.Duration {
	n := c.NrRunnable()
	if n < 1 {
		n = 1
	}
	s := schedLatency / sim.Duration(n)
	if s < minGranularity {
		s = minGranularity
	}
	return s
}

// ---- dispatch / preemption ----

// dispatch puts t on the CPU and schedules its burst completion.
func (c *CPU) dispatch(t *Task) {
	now := c.s.eng.Now()
	t.state = StateRunning
	c.curr = t
	c.switches++
	t.ctxSwitches++
	c.retuneTick()
	if c.s.OnDispatch != nil {
		c.s.OnDispatch(c.id, t)
	}

	overhead := ctxSwitch + c.pendingExit + t.extraNext
	c.pendingExit = 0
	t.extraNext = 0
	if c.lastTask != nil && c.lastTask != t {
		overhead += coldCachePenalty
	}
	if t.cpu >= 0 && t.cpu != c.id {
		overhead += migrationPenalty
	}
	t.cpu = c.id
	t.sliceStart = now
	if !t.everRan {
		t.firstRunAt = now
	}

	c.htMult = 1000
	if sib := c.s.siblingOf(c.id); sib >= 0 && c.s.cpus[sib].curr != nil {
		c.htMult += htContentionFactor
	}
	wall := overhead + t.remaining*sim.Duration(c.htMult)/1000
	c.overhead = overhead
	c.burstStart = now
	c.burstPlanned = wall
	c.burstTimer.Arm(wall, c.burstDoneFn)
	c.burstArmed = true
}

// updateCurr charges the running task for time elapsed since the last
// accounting anchor (the kernel's update_curr). The completion event stays
// valid because the remaining work shrinks by exactly the elapsed time.
func (c *CPU) updateCurr() {
	t := c.curr
	if t == nil || !c.burstArmed {
		return
	}
	now := c.s.eng.Now()
	elapsed := now.Sub(c.burstStart)
	if elapsed <= 0 {
		return
	}
	c.busyTime += elapsed
	use := elapsed
	if c.overhead > 0 {
		if use <= c.overhead {
			c.overhead -= use
			c.burstStart = now
			return
		}
		use -= c.overhead
		c.overhead = 0
	}
	consumed := use * 1000 / sim.Duration(c.htMult)
	if consumed > t.remaining {
		consumed = t.remaining
	}
	t.remaining -= consumed
	c.charge(t, consumed)
	c.burstStart = now
}

// chargePartial accounts for a partially executed dispatch segment and
// cancels its completion event. The task remains c.curr.
func (c *CPU) chargePartial() {
	c.updateCurr()
	if c.burstArmed {
		c.burstTimer.Cancel()
		c.burstArmed = false
	}
}

// charge adds CPU time to a task's accounting (vruntime for CFS). Every
// CFS task runs at nice 0, whose weight is the reference 1024, so vruntime
// advances by exactly the time run.
func (c *CPU) charge(t *Task, d sim.Duration) {
	t.runTime += d
	if t.class == ClassCFS {
		t.vruntime += d
		c.updateMinVruntime()
	}
}

// burstDone fires when the current dispatch segment consumed the whole
// burst.
func (c *CPU) burstDone() {
	t := c.curr
	c.busyTime += c.s.eng.Now().Sub(c.burstStart)
	c.overhead = 0
	c.charge(t, t.remaining)
	t.remaining = 0
	c.burstArmed = false
	c.curr = nil
	c.lastTask = t
	t.lastOffCPU = c.s.eng.Now()
	t.state = StateRunnable // transitional; callback decides
	fn := t.onDone
	t.onDone = nil
	t.everRan = true
	if fn != nil {
		fn()
	}
	switch {
	case t.state == StateSleeping:
		// Callback slept the task.
	case t.remaining > 0:
		// Callback queued another burst: task stays runnable here.
		c.enqueue(t)
	default:
		// No further work: implicit sleep.
		t.state = StateSleeping
		t.lastSleep = c.s.eng.Now()
	}
	c.schedule()
}

// preemptCurr takes the CPU away from the running task, which returns to
// its runqueue.
func (c *CPU) preemptCurr() {
	t := c.curr
	c.chargePartial()
	c.curr = nil
	c.lastTask = t
	t.lastOffCPU = c.s.eng.Now()
	c.enqueue(t)
}

// schedule picks and dispatches the next task if the CPU is free.
func (c *CPU) schedule() {
	if c.curr != nil || c.stealing {
		return
	}
	t := c.pickNext()
	if t == nil {
		c.enterIdle()
		return
	}
	c.dispatch(t)
}

// shouldPreempt decides whether waking task w preempts the running task.
func (c *CPU) shouldPreempt(w *Task) bool {
	cur := c.curr
	if cur == nil {
		return false
	}
	c.updateCurr() // preemption decisions need fresh vruntime
	if w.class == ClassFIFO {
		return cur.class != ClassFIFO || w.rtprio > cur.rtprio
	}
	if cur.class == ClassFIFO {
		return false
	}
	// CFS wakeup preemption: the waker needs a vruntime advantage larger
	// than wakeup_granularity (all tasks share nice 0's weight, so unscaled).
	return cur.vruntime-w.vruntime > wakeupGranularity
}

// ---- tick ----

func (c *CPU) startTick() {
	c.tick = sim.NewTicker(c.s.eng, c.tickPeriod(), func(sim.Time) { c.onTick() })
}

func (c *CPU) tickPeriod() sim.Duration {
	if c.noHz && c.NrRunnable() <= 1 {
		return noHzTickPeriod
	}
	return hzTickPeriod
}

// retuneTick re-derives the tick period after a runqueue change. Only a
// nohz_full CPU's period depends on its load; every other CPU keeps the
// period startTick gave it.
func (c *CPU) retuneTick() {
	if c.noHz && c.tick != nil {
		c.tick.SetPeriod(c.tickPeriod())
	}
}

func (c *CPU) onTick() {
	// Housekeeping work charged as stolen time.
	if w := c.s.TickWork; w != nil {
		if d := w(c.id); d > 0 {
			c.Steal(d, nil)
		}
	}
	c.checkPreemptTick()
}

// checkPreemptTick is CFS's tick-driven preemption: the current task is
// preempted once it exhausted its slice and someone else is queued.
func (c *CPU) checkPreemptTick() {
	cur := c.curr
	if cur == nil || cur.class != ClassCFS || len(c.cfs) == 0 {
		return
	}
	c.updateCurr()
	ran := c.s.eng.Now().Sub(cur.sliceStart)
	if ran < c.slice() {
		// Also preempt when vruntime fell far behind the leftmost.
		lv, ok := c.leftmostVruntime()
		if !ok || cur.vruntime <= lv+c.slice() {
			return
		}
	}
	c.preemptCurr()
	c.schedule()
}

// ---- interrupt time stealing ----

// Steal interrupts the CPU for dur of non-preemptible work (hardirq,
// softirq, tick housekeeping), then calls fn. Nested steals queue FIFO.
func (c *CPU) Steal(dur sim.Duration, fn func()) {
	if dur < 0 {
		panic("sched: negative steal")
	}
	c.stealQ = append(c.stealQ, stealItem{dur: dur, fn: fn})
	if c.stealing {
		return
	}
	c.stealing = true
	var exit sim.Duration
	if c.curr != nil {
		c.chargePartial()
	} else {
		exit = c.exitIdle()
	}
	c.runSteal(exit)
}

func (c *CPU) runSteal(extra sim.Duration) {
	item := c.stealQ[0]
	// Dequeue by shifting down rather than re-slicing from the front:
	// stealQ[1:] would walk the slice off its backing array and force a
	// fresh allocation per handful of interrupts. The queue is at most a
	// few items deep, so the copy is cheaper than the garbage.
	n := copy(c.stealQ, c.stealQ[1:])
	c.stealQ[n] = stealItem{}
	c.stealQ = c.stealQ[:n]
	total := extra + item.dur
	c.stolenTime += total
	// Only one steal window is in flight at a time (c.stealing gates
	// re-entry), so the item can ride in a field instead of a per-call
	// closure capture.
	c.stealCur = item
	c.s.eng.Schedule(total, c.stealDoneFn)
}

// stealDone fires when the in-flight steal window elapses.
func (c *CPU) stealDone() {
	item := c.stealCur
	c.stealCur = stealItem{}
	if item.fn != nil {
		item.fn()
	}
	if len(c.stealQ) > 0 {
		c.runSteal(0)
		return
	}
	c.stealing = false
	c.resumeAfterSteal()
}

// resumeAfterSteal restarts execution once interrupt work drains. A task
// woken by the interrupt may preempt the interrupted one here.
func (c *CPU) resumeAfterSteal() {
	if c.curr != nil {
		best := c.bestQueued()
		if best != nil && c.shouldPreempt(best) {
			c.preemptCurr()
			c.schedule()
			return
		}
		// Resume the interrupted dispatch segment with what remains.
		t := c.curr
		c.curr = nil
		c.dispatchResume(t)
		return
	}
	c.schedule()
}

// dispatchResume continues an interrupted segment without charging a fresh
// context switch.
func (c *CPU) dispatchResume(t *Task) {
	now := c.s.eng.Now()
	t.state = StateRunning
	c.curr = t
	wall := c.overhead + t.remaining*sim.Duration(c.htMult)/1000
	c.burstStart = now
	c.burstPlanned = wall
	c.burstTimer.Arm(wall, c.burstDoneFn)
	c.burstArmed = true
}

// bestQueued peeks the strongest queued task without dequeueing.
func (c *CPU) bestQueued() *Task {
	if len(c.rt) > 0 {
		best := c.rt[0]
		for _, t := range c.rt[1:] {
			if t.rtprio > best.rtprio {
				best = t
			}
		}
		return best
	}
	if len(c.cfs) > 0 {
		best := c.cfs[0]
		for _, t := range c.cfs[1:] {
			if t.vruntime < best.vruntime {
				best = t
			}
		}
		return best
	}
	return nil
}

// ---- idle & C-states ----

func (c *CPU) enterIdle() {
	now := c.s.eng.Now()
	c.idleSince = now
	if c.s.opts.IdlePoll {
		c.cstate = -1 // polling: zero exit latency
		return
	}
	c.setCState(0) // C1 immediately
	c.armDeepen()
}

func (c *CPU) setCState(i int) {
	max := len(c.s.cstates) - 1
	if m := c.s.opts.MaxCState; m > 0 && m-1 < max {
		max = m - 1
	}
	if i > max {
		i = max
	}
	c.cstate = i
}

// armDeepen schedules promotion to the next deeper C-state.
func (c *CPU) armDeepen() {
	next := c.cstate + 1
	max := len(c.s.cstates) - 1
	if m := c.s.opts.MaxCState; m > 0 && m-1 < max {
		max = m - 1
	}
	if next > max {
		return
	}
	wait := c.s.cstates[next].Residency - c.s.eng.Now().Sub(c.idleSince)
	if wait < 0 {
		wait = 0
	}
	c.deepenTimer.Arm(wait, c.deepenFn)
}

// deepen promotes the idle CPU one C-state deeper. Between arming and
// firing the C-state cannot change (exitIdle cancels the deepen timer),
// so the
// target state is recomputed here rather than captured per arm.
func (c *CPU) deepen() {
	c.cstate++
	c.armDeepen()
}

// exitIdle leaves the idle state, returning the exit latency to charge.
func (c *CPU) exitIdle() sim.Duration {
	c.deepenTimer.Cancel()
	if c.cstate < 0 {
		return 0 // polling or active
	}
	d := c.s.cstates[c.cstate].ExitLatency
	c.cstate = -1
	return d
}
