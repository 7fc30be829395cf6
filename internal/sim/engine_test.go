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
	e.Schedule(30*Microsecond, func() { got = append(got, 3) })
	e.Schedule(10*Microsecond, func() { got = append(got, 1) })
	e.Schedule(20*Microsecond, func() { got = append(got, 2) })
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
		e.ScheduleAt(Time(5*Microsecond), func() { got = append(got, i) })
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
	e.Schedule(10*Microsecond, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.ScheduleAt(Time(5*Microsecond), func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	e.Schedule(-1, func() {})
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var got []Time
	for i := 1; i <= 5; i++ {
		e.Schedule(Duration(i)*Millisecond, func() { got = append(got, e.Now()) })
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

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			e.Schedule(Microsecond, rec)
		}
	}
	e.Schedule(Microsecond, rec)
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
		e.Schedule(Microsecond, func() {})
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
			e.Schedule(dd, func() { fired = append(fired, e.Now()) })
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

// TestTimerArmAtCurrentInstantFIFO: arming a timer at the current
// instant assigns a fresh sequence number, so it fires after events
// already queued at that same instant — the (when, seq) FIFO contract
// holds for timers exactly as for plain events.
func TestTimerArmAtCurrentInstantFIFO(t *testing.T) {
	e := NewEngine()
	tm := e.NewTimer()
	var got []string
	e.ScheduleAt(Time(10*Microsecond), func() {
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
	e.ScheduleAt(Time(10*Microsecond), func() {
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
// state-integrity contract (afalint resetcover/poolescape): fire must
// drop a recycled event's fn closure reference before it returns the
// event to e.free, so captured memory is not pinned until the next
// reuse, and push must reinitialize every field on reacquisition.
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
	t.Run("reacquire reinitializes", func(t *testing.T) {
		e := NewEngine()
		// Behind the timer's wheel entry the event files into the far
		// heap, so it leaves through a fire with far set.
		e.NewTimer().ArmAt(1, func() {})
		e.ScheduleAt(Time(farSpan), func() {})
		ev := e.far[0]
		e.Run()
		if n := len(e.free); n != 1 || e.free[0] != ev || !ev.far {
			t.Fatalf("freelist %v after the far event fired, want [%p] with far set", e.free, ev)
		}
		e.Schedule(7, func() {})
		// The queue is empty, so the reacquired event takes the min lane.
		if e.lane != ev {
			t.Fatal("freelist did not hand back the recycled event")
		}
		if ev.when != Time(farSpan).Add(7) || ev.seq != 2 || ev.far || ev.fn == nil || ev.index != inLane {
			t.Errorf("recycled event not fully reinitialized: when=%v seq=%d far=%v fn-nil=%v index=%d",
				ev.when, ev.seq, ev.far, ev.fn == nil, ev.index)
		}
	})
}
