package sched

import (
	"testing"

	"repro/internal/sim"
)

func newSched(t *testing.T, ncpu int, boot BootOptions) (*sim.Engine, *Scheduler) {
	t.Helper()
	eng := sim.NewEngine()
	s := New(eng, Config{NumCPUs: ncpu, Boot: boot, Seed: 1})
	return eng, s
}

// hog builds a CPU-bound task that, once woken, burns the CPU in long
// bursts until stopped.
type hog struct {
	task *Task
	s    *Scheduler
	stop bool
}

func newHog(s *Scheduler, name string, affinity []int) *hog {
	h := &hog{s: s}
	h.task = s.NewTask(name, ClassCFS, 0, affinity)
	return h
}

func (h *hog) wake() {
	h.task.Exec(10*sim.Millisecond, h.again)
	h.s.Wake(h.task)
}

func (h *hog) again() {
	if !h.stop {
		h.task.Exec(10*sim.Millisecond, h.again)
	}
}

// ioThread models a QD1 I/O thread: each wake costs a short CPU burst,
// then it sleeps until the next external wake. It records the wake→burst
// completion latency.
type ioThread struct {
	task      *Task
	s         *Scheduler
	eng       *sim.Engine
	burst     sim.Duration
	latencies []sim.Duration
	wakeAt    sim.Time
}

func newIOThread(s *Scheduler, eng *sim.Engine, name string, class Class, prio int, affinity []int) *ioThread {
	io := &ioThread{s: s, eng: eng, burst: 3 * sim.Microsecond}
	io.task = s.NewTask(name, class, prio, affinity)
	return io
}

// kick wakes the thread as a device completion would. With QD1 a new
// completion cannot arrive while the previous one is still being handled,
// so kicks to a non-sleeping thread are dropped.
func (io *ioThread) kick() {
	if io.task.State() != StateSleeping {
		return
	}
	io.wakeAt = io.eng.Now()
	io.task.Exec(io.burst, func() {
		io.latencies = append(io.latencies, io.eng.Now().Sub(io.wakeAt))
	})
	io.s.Wake(io.task)
}

// pumpQD1 runs a closed loop: after each completion the next "device
// completion" arrives serviceTime later, like a QD1 random read.
func (io *ioThread) pumpQD1(serviceTime sim.Duration) {
	io.wakeAt = io.eng.Now()
	var cycle func()
	cycle = func() {
		io.latencies = append(io.latencies, io.eng.Now().Sub(io.wakeAt))
		io.eng.Schedule(serviceTime, func() {
			io.wakeAt = io.eng.Now()
			io.task.Exec(io.burst, cycle)
			io.s.Wake(io.task)
		})
	}
	io.task.Exec(io.burst, cycle)
	io.s.Wake(io.task)
}

func (io *ioThread) max() sim.Duration {
	var m sim.Duration
	for _, l := range io.latencies {
		if l > m {
			m = l
		}
	}
	return m
}

func TestSingleTaskRunsImmediately(t *testing.T) {
	eng, s := newSched(t, 1, BootOptions{})
	done := sim.Time(-1)
	task := s.NewTask("a", ClassCFS, 0, nil)
	task.Exec(10*sim.Microsecond, func() { done = eng.Now() })
	s.Wake(task)
	eng.RunUntil(sim.Time(sim.Millisecond))
	if done < 0 {
		t.Fatal("burst never completed")
	}
	// ctx switch + C1 exit + 10µs ≈ 13.5µs.
	if done > sim.Time(20*sim.Microsecond) {
		t.Fatalf("single task took %v to finish a 10µs burst", done)
	}
	if task.State() != StateSleeping {
		t.Fatalf("task state = %v after implicit sleep", task.State())
	}
}

func TestExecChainsKeepRunning(t *testing.T) {
	eng, s := newSched(t, 1, BootOptions{})
	n := 0
	task := s.NewTask("a", ClassCFS, 0, nil)
	var again func()
	again = func() {
		n++
		if n < 5 {
			task.Exec(sim.Microsecond, again)
		}
	}
	task.Exec(sim.Microsecond, again)
	s.Wake(task)
	eng.RunUntil(sim.Time(sim.Millisecond))
	if n != 5 {
		t.Fatalf("chained bursts ran %d times, want 5", n)
	}
}

func TestWakeWithoutBurstPanics(t *testing.T) {
	_, s := newSched(t, 1, BootOptions{})
	task := s.NewTask("a", ClassCFS, 0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Wake without Exec did not panic")
		}
	}()
	s.Wake(task)
}

func TestWakeRunnableIsNoop(t *testing.T) {
	eng, s := newSched(t, 1, BootOptions{})
	n := 0
	task := s.NewTask("a", ClassCFS, 0, nil)
	task.Exec(10*sim.Microsecond, func() { n++ })
	s.Wake(task)
	s.Wake(task) // second wake must not double anything
	eng.RunUntil(sim.Time(sim.Millisecond))
	if n != 1 {
		t.Fatalf("burst ran %d times", n)
	}
}

func TestFIFOPreemptsCFSImmediately(t *testing.T) {
	eng, s := newSched(t, 1, BootOptions{})
	h := newHog(s, "hog", []int{0})
	h.wake()
	eng.RunUntil(sim.Time(2 * sim.Millisecond)) // hog mid-burst

	io := newIOThread(s, eng, "rtio", ClassFIFO, 99, []int{0})
	io.kick()
	eng.RunUntil(sim.Time(3 * sim.Millisecond))
	if len(io.latencies) != 1 {
		t.Fatal("RT burst did not run")
	}
	if io.latencies[0] > 15*sim.Microsecond {
		t.Fatalf("RT wake-to-done = %v, want µs-scale preemption", io.latencies[0])
	}
}

func TestCFSSleeperCreditDelaysIOWake(t *testing.T) {
	// The paper's default-config mechanism: a freshly woken CPU hog holds
	// sleeper credit, so the I/O thread's wakeup preemption is refused and
	// it waits out multi-millisecond stretches.
	eng, s := newSched(t, 1, BootOptions{})
	io := newIOThread(s, eng, "fio", ClassCFS, 0, []int{0})

	// Let the I/O thread run alone long enough to accumulate vruntime.
	io.pumpQD1(27 * sim.Microsecond)
	eng.RunUntil(sim.Time(200 * sim.Millisecond))
	maxBefore := io.max()
	if maxBefore > 20*sim.Microsecond {
		t.Fatalf("uncontended I/O latency = %v, want < 20µs", maxBefore)
	}

	h := newHog(s, "llvmpipe", []int{0})
	h.wake()
	eng.RunUntil(sim.Time(230 * sim.Millisecond))
	maxDuring := io.max()
	if maxDuring < sim.Millisecond {
		t.Fatalf("hog with sleeper credit delayed I/O by only %v, want ms-scale", maxDuring)
	}
	// Sleeper credit (3 ms) plus up to two tick-slice rounds bounds the
	// stall near the paper's ~5 ms worst case.
	if maxDuring > 7*sim.Millisecond {
		t.Fatalf("I/O delay %v exceeds CFS latency budget", maxDuring)
	}
}

func TestCFSWakeupPreemptionAfterCreditBurns(t *testing.T) {
	// Once the hog has burned its credit the I/O thread preempts on wake,
	// so late-window latencies return to µs scale.
	eng, s := newSched(t, 1, BootOptions{})
	io := newIOThread(s, eng, "fio", ClassCFS, 0, []int{0})
	io.pumpQD1(27 * sim.Microsecond)
	eng.RunUntil(sim.Time(200 * sim.Millisecond))
	h := newHog(s, "hog", []int{0})
	h.wake()
	eng.RunUntil(sim.Time(260 * sim.Millisecond))

	// Inspect only the last 100 completions (well after the credit window).
	tail := io.latencies[len(io.latencies)-100:]
	var worst sim.Duration
	for _, l := range tail {
		if l > worst {
			worst = l
		}
	}
	if worst > 100*sim.Microsecond {
		t.Fatalf("late-window I/O latency = %v; wakeup preemption not effective", worst)
	}
}

func TestTwoHogsShareCPUFairly(t *testing.T) {
	eng, s := newSched(t, 1, BootOptions{})
	h1 := newHog(s, "h1", []int{0})
	h2 := newHog(s, "h2", []int{0})
	h1.wake()
	h2.wake()
	eng.RunUntil(sim.Time(500 * sim.Millisecond))
	r1, r2 := h1.task.RunTime(), h2.task.RunTime()
	if r1 == 0 || r2 == 0 {
		t.Fatal("a hog starved completely")
	}
	// At nice 0 vruntime is run time: neither hog ever slept or moved, so
	// no placement rebased it.
	if h1.task.vruntime != r1 || h2.task.vruntime != r2 {
		t.Fatalf("vruntime %v, %v != run time %v, %v", h1.task.vruntime, h2.task.vruntime, r1, r2)
	}
	ratio := float64(r1) / float64(r2)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("unfair split: %v vs %v", r1, r2)
	}
}

func TestIsolcpusExcludesUnpinnedTasks(t *testing.T) {
	eng, s := newSched(t, 4, BootOptions{Isolcpus: []int{1, 2, 3}})
	for i := 0; i < 6; i++ {
		h := newHog(s, "hog", nil) // unpinned
		h.wake()
	}
	eng.RunUntil(sim.Time(100 * sim.Millisecond))
	for id := 1; id <= 3; id++ {
		if s.CPU(id).BusyTime() != 0 {
			t.Fatalf("isolated cpu(%d) ran unpinned work for %v", id, s.CPU(id).BusyTime())
		}
	}
	if s.CPU(0).BusyTime() == 0 {
		t.Fatal("housekeeping CPU idle while hogs runnable")
	}
}

// TestBootOptionsRejectOutOfRange: a boot CPU id outside the machine, or
// a negative C-state cap, is a configuration bug; New names it instead of
// silently ignoring it.
func TestBootOptionsRejectOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		name string
		boot BootOptions
		want string // "" = accepted
	}{
		{"first and last CPU", BootOptions{Isolcpus: []int{0, 39}, NoHzFull: []int{39}, RCUNocbs: []int{0}, MaxCState: 1}, ""},
		{"nohz_full past the last CPU", BootOptions{NoHzFull: []int{99}}, "sched: nohz_full CPU 99 out of range [0,40)"},
		{"isolcpus one past the end", BootOptions{Isolcpus: []int{1, 40}}, "sched: isolcpus CPU 40 out of range [0,40)"},
		{"negative rcu_nocbs", BootOptions{RCUNocbs: []int{-1}}, "sched: rcu_nocbs CPU -1 out of range [0,40)"},
		{"negative max_cstate", BootOptions{MaxCState: -1}, "sched: processor.max_cstate=-1 is negative"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if got, _ := recover().(string); got != tc.want {
					t.Fatalf("panic %q, want %q", got, tc.want)
				}
			}()
			New(sim.NewEngine(), Config{NumCPUs: 40, Boot: tc.boot, Seed: 1})
		})
	}
}

// TestBootListsAreCopies: New resolves the boot lists once, so neither
// the caller's slices nor the ones Boot returns may change what Boot
// reports or where tasks run.
func TestBootListsAreCopies(t *testing.T) {
	iso := []int{1}
	eng, s := newSched(t, 2, BootOptions{Isolcpus: iso, NoHzFull: []int{1}, RCUNocbs: []int{1}})
	iso[0] = 0
	b := s.Boot()
	b.Isolcpus[0], b.NoHzFull[0], b.RCUNocbs[0] = 0, 0, 0
	if b := s.Boot(); b.Isolcpus[0] != 1 || b.NoHzFull[0] != 1 || b.RCUNocbs[0] != 1 {
		t.Fatalf("Boot() = %+v after its lists were mutated, want CPU 1 in each set", b)
	}
	if !s.RCUOffloaded(1) || s.RCUOffloaded(0) {
		t.Fatal("rcu_nocbs membership changed with the mutated lists")
	}
	if got := s.CPU(1).tick.Period(); got != noHzTickPeriod {
		t.Fatalf("nohz_full CPU 1 tick = %v, want %v", got, noHzTickPeriod)
	}
	for i := 0; i < 4; i++ {
		newHog(s, "hog", nil).wake()
	}
	eng.RunUntil(sim.Time(50 * sim.Millisecond))
	if s.CPU(1).BusyTime() != 0 || s.CPU(0).BusyTime() == 0 {
		t.Fatalf("unpinned hogs ran %v on isolated CPU 1, %v on CPU 0",
			s.CPU(1).BusyTime(), s.CPU(0).BusyTime())
	}
}

func TestPinnedTaskRunsOnIsolatedCPU(t *testing.T) {
	eng, s := newSched(t, 2, BootOptions{Isolcpus: []int{1}})
	io := newIOThread(s, eng, "fio", ClassCFS, 0, []int{1})
	io.kick()
	eng.RunUntil(sim.Time(sim.Millisecond))
	if len(io.latencies) != 1 {
		t.Fatal("pinned task did not run on isolated CPU")
	}
	if io.task.CPU() != 1 {
		t.Fatalf("pinned task ran on cpu %d", io.task.CPU())
	}
}

func TestUnpinnedPrefersIdleCPU(t *testing.T) {
	eng, s := newSched(t, 2, BootOptions{})
	h1 := newHog(s, "h1", nil)
	h1.wake()
	eng.RunUntil(sim.Time(sim.Millisecond))
	h2 := newHog(s, "h2", nil)
	h2.wake()
	eng.RunUntil(sim.Time(50 * sim.Millisecond))
	if h1.task.CPU() == h2.task.CPU() {
		t.Fatalf("second hog stacked on busy cpu %d with an idle CPU available", h1.task.CPU())
	}
}

func TestNoHzFullTickSlowsWithOneTask(t *testing.T) {
	_, s := newSched(t, 2, BootOptions{NoHzFull: []int{1}})
	c := s.CPU(1)
	if c.tick.Period() != noHzTickPeriod {
		t.Fatalf("idle nohz_full CPU tick = %v, want %v", c.tick.Period(), noHzTickPeriod)
	}
	c0 := s.CPU(0)
	if c0.tick.Period() != hzTickPeriod {
		t.Fatalf("housekeeping CPU tick = %v, want %v", c0.tick.Period(), hzTickPeriod)
	}
}

func TestNoHzFullTickSpeedsUpWithTwoTasks(t *testing.T) {
	eng, s := newSched(t, 2, BootOptions{NoHzFull: []int{1}})
	h1 := newHog(s, "h1", []int{1})
	h2 := newHog(s, "h2", []int{1})
	h1.wake()
	h2.wake()
	eng.RunUntil(sim.Time(sim.Millisecond))
	if got := s.CPU(1).tick.Period(); got != hzTickPeriod {
		t.Fatalf("nohz CPU with 2 runnable: tick %v, want %v", got, hzTickPeriod)
	}
}

func TestCStateExitLatencyCharged(t *testing.T) {
	eng, s := newSched(t, 1, BootOptions{})
	io := newIOThread(s, eng, "fio", ClassCFS, 0, []int{0})
	// Let the CPU idle 1 ms → C6 (residency 600µs). The next wake must pay
	// ≈130µs exit latency.
	eng.RunUntil(sim.Time(sim.Millisecond))
	io.kick()
	eng.RunUntil(sim.Time(2 * sim.Millisecond))
	if len(io.latencies) != 1 {
		t.Fatal("no completion")
	}
	l := io.latencies[0]
	if l < 125*sim.Microsecond || l > 145*sim.Microsecond {
		t.Fatalf("deep-idle wake latency = %v, want ≈130µs+burst", l)
	}
}

func TestIdlePollRemovesExitLatency(t *testing.T) {
	eng, s := newSched(t, 1, BootOptions{IdlePoll: true})
	io := newIOThread(s, eng, "fio", ClassCFS, 0, []int{0})
	eng.RunUntil(sim.Time(sim.Millisecond))
	io.kick()
	eng.RunUntil(sim.Time(2 * sim.Millisecond))
	if l := io.latencies[0]; l > 10*sim.Microsecond {
		t.Fatalf("idle=poll wake latency = %v, want µs-scale", l)
	}
}

func TestMaxCStateCapsExitLatency(t *testing.T) {
	eng, s := newSched(t, 1, BootOptions{MaxCState: 1})
	io := newIOThread(s, eng, "fio", ClassCFS, 0, []int{0})
	eng.RunUntil(sim.Time(2 * sim.Millisecond)) // would reach C6 uncapped
	io.kick()
	eng.RunUntil(sim.Time(3 * sim.Millisecond))
	if l := io.latencies[0]; l > 12*sim.Microsecond {
		t.Fatalf("max_cstate=1 wake latency = %v, want ≈C1 exit (2µs)+burst", l)
	}
}

func TestStealDelaysRunningBurst(t *testing.T) {
	eng, s := newSched(t, 1, BootOptions{})
	var done sim.Time
	task := s.NewTask("a", ClassCFS, 0, []int{0})
	task.Exec(100*sim.Microsecond, func() { done = eng.Now() })
	s.Wake(task)
	eng.RunUntil(sim.Time(10 * sim.Microsecond))
	s.CPU(0).Steal(50*sim.Microsecond, nil) // hardirq storm
	eng.RunUntil(sim.Time(sim.Millisecond))
	// Without the steal the burst would finish ≈104µs; with it ≈154µs.
	if done < sim.Time(150*sim.Microsecond) {
		t.Fatalf("burst finished at %v; steal not charged", done)
	}
	if got := s.CPU(0).StolenTime(); got < 50*sim.Microsecond {
		t.Fatalf("stolen time = %v", got)
	}
}

func TestStealQueuesFIFO(t *testing.T) {
	eng, s := newSched(t, 1, BootOptions{})
	var order []int
	c := s.CPU(0)
	c.Steal(10*sim.Microsecond, func() { order = append(order, 1) })
	c.Steal(10*sim.Microsecond, func() { order = append(order, 2) })
	c.Steal(10*sim.Microsecond, func() { order = append(order, 3) })
	eng.RunUntil(sim.Time(sim.Millisecond))
	if len(order) != 3 || order[0] != 1 || order[2] != 3 {
		t.Fatalf("steal order = %v", order)
	}
}

func TestStealOnIdleCPUPaysExitLatency(t *testing.T) {
	eng, s := newSched(t, 1, BootOptions{})
	eng.RunUntil(sim.Time(sim.Millisecond)) // deep idle
	var at sim.Time
	s.CPU(0).Steal(10*sim.Microsecond, func() { at = eng.Now() })
	eng.RunUntil(sim.Time(2 * sim.Millisecond))
	got := at.Sub(sim.Time(sim.Millisecond))
	if got < 135*sim.Microsecond { // 130µs C6 exit + 10µs work
		t.Fatalf("idle steal completed after %v, want ≥140µs", got)
	}
}

func TestWakeDuringStealRunsAfterward(t *testing.T) {
	eng, s := newSched(t, 1, BootOptions{})
	io := newIOThread(s, eng, "fio", ClassFIFO, 99, []int{0})
	c := s.CPU(0)
	c.Steal(100*sim.Microsecond, func() { io.kick() }) // wake from hardirq
	eng.RunUntil(sim.Time(sim.Millisecond))
	if len(io.latencies) != 1 {
		t.Fatal("task woken from irq never ran")
	}
	if io.latencies[0] > 10*sim.Microsecond {
		t.Fatalf("post-irq dispatch took %v", io.latencies[0])
	}
}

func TestRTWokenDuringStealPreemptsCFSOnResume(t *testing.T) {
	eng, s := newSched(t, 1, BootOptions{})
	h := newHog(s, "hog", []int{0})
	h.wake()
	eng.RunUntil(sim.Time(2 * sim.Millisecond))
	io := newIOThread(s, eng, "rt", ClassFIFO, 99, []int{0})
	c := s.CPU(0)
	start := eng.Now()
	c.Steal(20*sim.Microsecond, func() { io.kick() })
	eng.RunUntil(sim.Time(5 * sim.Millisecond))
	if len(io.latencies) != 1 {
		t.Fatal("RT task never ran")
	}
	finished := io.wakeAt.Add(io.latencies[0]).Sub(start)
	if finished > 40*sim.Microsecond {
		t.Fatalf("RT task finished %v after irq start; hog not preempted on resume", finished)
	}
}

func TestTickWorkChargedAsStolenTime(t *testing.T) {
	eng, s := newSched(t, 1, BootOptions{})
	s.TickWork = func(cpu int) sim.Duration { return 5 * sim.Microsecond }
	h := newHog(s, "hog", []int{0})
	h.wake()
	eng.RunUntil(sim.Time(100 * sim.Millisecond))
	st := s.CPU(0).StolenTime()
	// ≈100 ticks × 5µs = 500µs.
	if st < 400*sim.Microsecond || st > 700*sim.Microsecond {
		t.Fatalf("stolen time = %v, want ≈500µs", st)
	}
}

func TestHTContentionSlowsBurst(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, Config{NumCPUs: 2, Siblings: []int{1, 0}, Seed: 1})
	h := newHog(s, "sib", []int{1})
	h.wake()
	eng.RunUntil(sim.Time(sim.Millisecond))

	var done sim.Time
	task := s.NewTask("a", ClassCFS, 0, []int{0})
	start := eng.Now()
	task.Exec(100*sim.Microsecond, func() { done = eng.Now() })
	s.Wake(task)
	eng.RunUntil(sim.Time(5 * sim.Millisecond))
	elapsed := done.Sub(start)
	if elapsed < 125*sim.Microsecond {
		t.Fatalf("burst with busy sibling took %v, want ≥125µs (+25%%)", elapsed)
	}
}

func TestColdCachePenaltyAfterOtherTaskRan(t *testing.T) {
	eng, s := newSched(t, 1, BootOptions{})
	a := newIOThread(s, eng, "a", ClassCFS, 0, []int{0})
	b := newIOThread(s, eng, "b", ClassCFS, 0, []int{0})
	a.kick()
	eng.RunUntil(sim.Time(sim.Millisecond))
	b.kick()
	eng.RunUntil(sim.Time(2 * sim.Millisecond))
	a.kick() // a resumes after b polluted the cache
	eng.RunUntil(sim.Time(3 * sim.Millisecond))
	if len(a.latencies) != 2 {
		t.Fatal("missing completions")
	}
	if a.latencies[1] < a.latencies[0]+coldCachePenalty/2 {
		t.Fatalf("no cold-cache penalty: first=%v second=%v", a.latencies[0], a.latencies[1])
	}
}

func TestStatsAccumulate(t *testing.T) {
	eng, s := newSched(t, 2, BootOptions{})
	h := newHog(s, "hog", nil)
	h.wake()
	// Busy time is charged at burst boundaries (and on update_curr), so run
	// past two full 10 ms hog bursts.
	eng.RunUntil(sim.Time(25 * sim.Millisecond))
	st := s.TotalStats()
	if st.BusyTime < 15*sim.Millisecond {
		t.Fatalf("busy = %v, want ≈20ms", st.BusyTime)
	}
	if st.Switches == 0 {
		t.Fatal("no dispatches counted")
	}
	if h.task.CtxSwitches() == 0 {
		t.Fatal("task ctx switches not counted")
	}
}

func TestSetClassChrt(t *testing.T) {
	// fio started under chrt -f 99: its I/O thread is a FIFO task before
	// the hog first runs, and still preempts the hog mid-burst at once.
	eng, s := newSched(t, 1, BootOptions{})
	io := newIOThread(s, eng, "fio", ClassFIFO, 99, []int{0})
	if io.task.Class() != ClassFIFO {
		t.Fatal("chrt class did not apply")
	}
	h := newHog(s, "hog", []int{0})
	h.wake()
	eng.RunUntil(sim.Time(2 * sim.Millisecond))
	io.kick()
	eng.RunUntil(sim.Time(3 * sim.Millisecond))
	if len(io.latencies) != 1 {
		t.Fatal("RT burst did not run")
	}
	if io.latencies[0] > 15*sim.Microsecond {
		t.Fatalf("chrt'd task latency %v under hog", io.latencies[0])
	}
}

func TestFIFOPriorityOrdering(t *testing.T) {
	eng, s := newSched(t, 1, BootOptions{})
	// Occupy the CPU with a long RT burst, then wake two RT tasks of
	// different priority; the higher one must run first.
	blocker := s.NewTask("blocker", ClassFIFO, 50, []int{0})
	blocker.Exec(100*sim.Microsecond, nil)
	s.Wake(blocker)
	eng.RunUntil(sim.Time(10 * sim.Microsecond))

	var order []string
	lo := s.NewTask("lo", ClassFIFO, 10, []int{0})
	lo.Exec(sim.Microsecond, func() { order = append(order, "lo") })
	hi := s.NewTask("hi", ClassFIFO, 40, []int{0})
	hi.Exec(sim.Microsecond, func() { order = append(order, "hi") })
	s.Wake(lo)
	s.Wake(hi)
	eng.RunUntil(sim.Time(sim.Millisecond))
	if len(order) != 2 || order[0] != "hi" {
		t.Fatalf("RT order = %v, want hi first", order)
	}
}

func TestInvalidTaskParamsPanic(t *testing.T) {
	_, s := newSched(t, 1, BootOptions{})
	for _, f := range []func(){
		func() { s.NewTask("x", ClassFIFO, 0, nil) },
		func() { s.NewTask("x", ClassFIFO, 100, nil) },
		func() { s.NewTask("x", ClassCFS, 0, nil).Exec(0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}
