package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.After(30*Microsecond, func() { got = append(got, 3) })
	e.After(10*Microsecond, func() { got = append(got, 1) })
	e.After(20*Microsecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
	if e.Now() != Time(30*Microsecond) {
		t.Fatalf("clock = %v, want 30µs", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Time(5*Microsecond), func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events fired out of scheduling order: %v", got)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.After(10*Microsecond, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(Time(5*Microsecond), func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.After(10*Microsecond, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
	// Canceling twice, or canceling nil, must be harmless.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var got []int
	evs := make([]*Event, 20)
	for i := 0; i < 20; i++ {
		i := i
		evs[i] = e.After(Duration(i+1)*Microsecond, func() { got = append(got, i) })
	}
	for i := 0; i < 20; i += 2 {
		e.Cancel(evs[i])
	}
	e.Run()
	if len(got) != 10 {
		t.Fatalf("got %d events, want 10", len(got))
	}
	for _, v := range got {
		if v%2 == 0 {
			t.Fatalf("canceled event %d fired", v)
		}
	}
}

func TestReschedule(t *testing.T) {
	e := NewEngine()
	var at Time
	ev := e.After(10*Microsecond, func() { at = e.Now() })
	e.Reschedule(ev, Time(50*Microsecond))
	e.Run()
	if at != Time(50*Microsecond) {
		t.Fatalf("rescheduled event fired at %v, want 50µs", at)
	}
}

func TestRescheduleFiredEvent(t *testing.T) {
	e := NewEngine()
	n := 0
	ev := e.After(10*Microsecond, func() { n++ })
	e.Run()
	if n != 1 {
		t.Fatalf("n = %d, want 1", n)
	}
	e.Reschedule(ev, Time(20*Microsecond))
	e.Run()
	if n != 2 {
		t.Fatalf("rescheduling a fired event should schedule fresh; n = %d, want 2", n)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var got []Time
	for i := 1; i <= 5; i++ {
		e.After(Duration(i)*Millisecond, func() { got = append(got, e.Now()) })
	}
	e.RunUntil(Time(3 * Millisecond))
	if len(got) != 3 {
		t.Fatalf("RunUntil(3ms) fired %d events, want 3 (inclusive boundary)", len(got))
	}
	if e.Now() != Time(3*Millisecond) {
		t.Fatalf("clock = %v, want 3ms", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(Time(7 * Second))
	if e.Now() != Time(7*Second) {
		t.Fatalf("clock = %v, want 7s", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 1; i <= 10; i++ {
		e.After(Duration(i)*Microsecond, func() {
			n++
			if n == 4 {
				e.Stop()
			}
		})
	}
	e.Run()
	if n != 4 {
		t.Fatalf("Run continued after Stop: n = %d, want 4", n)
	}
	// Run again resumes.
	e.Run()
	if n != 10 {
		t.Fatalf("second Run: n = %d, want 10", n)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			e.After(Microsecond, rec)
		}
	}
	e.After(Microsecond, rec)
	e.Run()
	if depth != 100 {
		t.Fatalf("chained depth = %d, want 100", depth)
	}
	if e.Now() != Time(100*Microsecond) {
		t.Fatalf("clock = %v, want 100µs", e.Now())
	}
}

func TestStepsCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.After(Microsecond, func() {})
	}
	e.Run()
	if e.Steps() != 7 {
		t.Fatalf("Steps() = %d, want 7", e.Steps())
	}
}

// Property: for any set of non-negative delays, events fire in nondecreasing
// time order and the final clock equals the max delay.
func TestPropertyMonotonicFiring(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		var maxT Time
		for _, d := range delays {
			dd := Duration(d) * Microsecond
			if Time(dd) > maxT {
				maxT = Time(dd)
			}
			e.After(dd, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delays) == 0 || e.Now() == maxT
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{25 * Microsecond, "25.000µs"},
		{5 * Millisecond, "5.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(10 * Microsecond)
	t1 := t0.Add(5 * Microsecond)
	if t1 != Time(15*Microsecond) {
		t.Fatalf("Add: got %v", t1)
	}
	if d := t1.Sub(t0); d != 5*Microsecond {
		t.Fatalf("Sub: got %v", d)
	}
	if s := Time(2500 * Millisecond).Seconds(); s != 2.5 {
		t.Fatalf("Seconds: got %v", s)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var fires []Time
	NewTicker(e, Millisecond, func(now Time) { fires = append(fires, now) })
	e.RunUntil(Time(5 * Millisecond))
	if len(fires) != 5 {
		t.Fatalf("ticker fired %d times in 5ms, want 5", len(fires))
	}
	for i, f := range fires {
		want := Time(Duration(i+1) * Millisecond)
		if f != want {
			t.Fatalf("fire %d at %v, want %v", i, f, want)
		}
	}
}

func TestTickerStop(t *testing.T) {
	e := NewEngine()
	n := 0
	var tk *Ticker
	tk = NewTicker(e, Millisecond, func(Time) {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	e.RunUntil(Time(10 * Millisecond))
	if n != 3 {
		t.Fatalf("stopped ticker fired %d times, want 3", n)
	}
}

func TestTickerSetPeriod(t *testing.T) {
	e := NewEngine()
	var fires []Time
	tk := NewTicker(e, Millisecond, func(now Time) { fires = append(fires, now) })
	e.RunUntil(Time(2 * Millisecond))
	tk.SetPeriod(Second) // like nohz_full dropping to 1 Hz
	e.RunUntil(Time(3 * Second))
	if len(fires) != 4 { // 1ms, 2ms, 1.002s, 2.002s
		t.Fatalf("fires = %v, want 4 entries", fires)
	}
	if fires[2] != Time(2*Millisecond+Second) {
		t.Fatalf("first slow fire at %v, want 1.002s", fires[2])
	}
	if tk.Period() != Second {
		t.Fatalf("Period() = %v", tk.Period())
	}
	// Setting the same period is a no-op and must not re-anchor.
	tk.SetPeriod(Second)
	e.RunUntil(Time(3*Second + 2*Millisecond))
	if len(fires) != 5 {
		t.Fatalf("after no-op SetPeriod: fires = %d, want 5", len(fires))
	}
}

func TestTickerBadPeriodPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("zero period did not panic")
		}
	}()
	NewTicker(e, 0, func(Time) {})
}

// TestRunUntilDrainsCanceledHeadPastT pins RunUntil's tombstone-drain
// contract: a canceled event at the head of the queue is discarded even
// when its timestamp lies beyond t, and the clock still lands exactly on
// t. Cancel normally removes events eagerly, so the tombstone is built
// white-box — the drain branch must keep working if a future Cancel
// strategy leaves canceled events queued.
func TestRunUntilDrainsCanceledHeadPastT(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(Time(50*Microsecond), func() { fired = true })
	ev.canceled = true // white-box tombstone: still queued, head of heap

	e.RunUntil(Time(20 * Microsecond))
	if fired {
		t.Fatal("canceled event fired")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0 (tombstone not drained)", e.Pending())
	}
	if e.Now() != Time(20*Microsecond) {
		t.Fatalf("Now() = %v, want 20µs", e.Now())
	}
}

// TestRunUntilDrainsTombstoneBeforeLiveEvent: the tombstone drain only
// discards canceled heads — a live event beyond t stays queued.
func TestRunUntilDrainsTombstoneBeforeLiveEvent(t *testing.T) {
	e := NewEngine()
	ev := e.At(Time(50*Microsecond), func() {})
	ev.canceled = true // white-box tombstone at the head
	liveFired := false
	e.At(Time(60*Microsecond), func() { liveFired = true })

	e.RunUntil(Time(20 * Microsecond))
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1 (live event must survive)", e.Pending())
	}
	if e.Now() != Time(20*Microsecond) {
		t.Fatalf("Now() = %v, want 20µs", e.Now())
	}
	e.Run()
	if !liveFired {
		t.Fatal("live event behind the tombstone never fired")
	}
}

// TestTimerArmAtCurrentInstantFIFO: arming a timer at the current
// instant assigns a fresh sequence number, so it fires after events
// already queued at that same instant — the (when, seq) FIFO contract
// holds for timers exactly as for plain events.
func TestTimerArmAtCurrentInstantFIFO(t *testing.T) {
	e := NewEngine()
	tm := e.NewTimer()
	var got []string
	e.At(Time(10*Microsecond), func() {
		e.ScheduleAt(e.Now(), func() { got = append(got, "event") })
		tm.ArmAt(e.Now(), func() { got = append(got, "timer") })
	})
	e.Run()
	if len(got) != 2 || got[0] != "event" || got[1] != "timer" {
		t.Fatalf("fire order %v, want [event timer]", got)
	}
}

// TestTimerRearmAtNowSupersedesOldDeadline: re-arming an armed timer at
// the current instant cancels the old deadline and takes a fresh seq —
// the old callback never fires, and the new one queues FIFO behind
// events already scheduled at this instant.
func TestTimerRearmAtNowSupersedesOldDeadline(t *testing.T) {
	e := NewEngine()
	tm := e.NewTimer()
	var got []string
	tm.ArmAt(Time(100*Microsecond), func() { got = append(got, "stale") })
	e.At(Time(10*Microsecond), func() {
		e.ScheduleAt(e.Now(), func() { got = append(got, "first") })
		tm.ArmAt(e.Now(), func() { got = append(got, "rearmed") })
	})
	e.Run()
	if len(got) != 2 || got[0] != "first" || got[1] != "rearmed" {
		t.Fatalf("fire order %v, want [first rearmed]", got)
	}
	if e.Now() != Time(10*Microsecond) {
		t.Fatalf("Now() = %v, want 10µs (stale 100µs deadline must not fire)", e.Now())
	}
	if tm.Armed() {
		t.Fatal("timer still armed after firing")
	}
}

// TestPooledRecycleClearsFn is a white-box check of the freelist's
// state-integrity contract (afalint resetcover/poolescape):
// every path that returns a pooled event to e.free must drop the fn
// closure reference first, so captured memory is not pinned until the
// next reuse, and push must reinitialize every field on reacquisition.
func TestPooledRecycleClearsFn(t *testing.T) {
	t.Run("fired", func(t *testing.T) {
		e := NewEngine()
		fired := false
		e.Schedule(5, func() { fired = true })
		if !e.Step() || !fired {
			t.Fatal("pooled event did not fire")
		}
		if n := len(e.free); n != 1 {
			t.Fatalf("freelist has %d events after fire, want 1", n)
		}
		if e.free[0].fn != nil {
			t.Error("fired pooled event kept its fn reference on the freelist")
		}
	})
	t.Run("canceled", func(t *testing.T) {
		e := NewEngine()
		// Pooled pointers are never handed out by the public API, so
		// reach the tombstone path directly through push.
		ev := e.push(5, func() {}, true)
		e.Cancel(ev)
		if n := len(e.free); n != 1 {
			t.Fatalf("freelist has %d events after cancel, want 1", n)
		}
		if ev.fn != nil {
			t.Error("canceled pooled event kept its fn reference on the freelist")
		}
		if e.Pending() != 0 {
			t.Errorf("queue still holds %d events after cancel", e.Pending())
		}
	})
	t.Run("tombstone in Step", func(t *testing.T) {
		e := NewEngine()
		ev := e.push(5, func() {}, true)
		ev.canceled = true // simulate a tombstone Cancel's fast path missed
		if e.Step() {
			t.Fatal("Step fired a canceled event")
		}
		if n := len(e.free); n != 1 {
			t.Fatalf("freelist has %d events after tombstone drain, want 1", n)
		}
		if ev.fn != nil {
			t.Error("drained tombstone kept its fn reference on the freelist")
		}
	})
	t.Run("tombstone in RunUntil", func(t *testing.T) {
		e := NewEngine()
		ev := e.push(5, func() {}, true)
		ev.canceled = true
		e.RunUntil(10)
		if n := len(e.free); n != 1 {
			t.Fatalf("freelist has %d events after tombstone drain, want 1", n)
		}
		if ev.fn != nil {
			t.Error("drained tombstone kept its fn reference on the freelist")
		}
		if e.Now() != 10 {
			t.Errorf("clock at %v after RunUntil(10)", e.Now())
		}
	})
	t.Run("reacquire reinitializes", func(t *testing.T) {
		e := NewEngine()
		ev := e.push(5, func() {}, true)
		e.Cancel(ev)
		ev2 := e.push(7, func() {}, true)
		if ev2 != ev {
			t.Fatal("freelist did not hand back the recycled event")
		}
		// The queue is empty, so the reacquired event takes the min lane.
		if ev2.when != 7 || ev2.canceled || !ev2.pooled || ev2.fn == nil || ev2.index != inLane {
			t.Errorf("recycled event not fully reinitialized: when=%v canceled=%v pooled=%v fn-nil=%v index=%d",
				ev2.when, ev2.canceled, ev2.pooled, ev2.fn == nil, ev2.index)
		}
	})
}
