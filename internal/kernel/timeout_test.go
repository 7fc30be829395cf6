package kernel

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/health"
	"repro/internal/irq"
	"repro/internal/nvme"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestNewRejectsNegativePolicy: a negative TimeoutPolicy field is
// rejected when the kernel is built, naming the field, instead of
// booting and panicking mid-run on the first retry or timeout.
func TestNewRejectsNegativePolicy(t *testing.T) {
	def := DefaultTimeoutPolicy()
	cases := []struct {
		name    string
		edit    func(p *TimeoutPolicy)
		wantErr string // "" = accepted
	}{
		{name: "default", edit: func(p *TimeoutPolicy) {}},
		{name: "zero", edit: func(p *TimeoutPolicy) { *p = TimeoutPolicy{} }},
		{name: "budgets and watermark", edit: func(p *TimeoutPolicy) {
			p.Budget, p.BudgetRefill, p.OverloadWatermark = 4, sim.Millisecond, 32
		}},
		{name: "negative backoff", edit: func(p *TimeoutPolicy) { p.Backoff = -500 * sim.Microsecond },
			wantErr: "kernel: TimeoutPolicy.Backoff is negative (-500000ns)"},
		{name: "negative backoff cap", edit: func(p *TimeoutPolicy) { p.BackoffMax = -1 },
			wantErr: "kernel: TimeoutPolicy.BackoffMax is negative (-1ns)"},
		{name: "negative abort cost", edit: func(p *TimeoutPolicy) { p.AbortCost = -10 * sim.Microsecond },
			wantErr: "kernel: TimeoutPolicy.AbortCost is negative (-10000ns)"},
		{name: "negative budget refill", edit: func(p *TimeoutPolicy) { p.Budget, p.BudgetRefill = 4, -sim.Millisecond },
			wantErr: "kernel: TimeoutPolicy.BudgetRefill is negative"},
		{name: "negative retries", edit: func(p *TimeoutPolicy) { p.MaxRetries = -1 },
			wantErr: "kernel: TimeoutPolicy.MaxRetries is negative (-1)"},
		{name: "negative budget", edit: func(p *TimeoutPolicy) { p.Budget = -3 },
			wantErr: "kernel: TimeoutPolicy.Budget is negative (-3)"},
		{name: "negative watermark", edit: func(p *TimeoutPolicy) { p.OverloadWatermark = -8 },
			wantErr: "kernel: TimeoutPolicy.OverloadWatermark is negative (-8)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := def
			tc.edit(&p)
			eng := sim.NewEngine()
			sch := sched.New(eng, sched.Config{NumCPUs: 2, Seed: 3})
			ic := irq.New(eng, sch, irq.Config{NumSSDs: 1, NumCPUs: 2, Seed: 3})
			var got string
			func() {
				defer func() {
					if r := recover(); r != nil {
						got = fmt.Sprint(r)
					}
				}()
				New(eng, Config{Sched: sch, IRQ: ic, Timeout: p, Seed: 3})
			}()
			switch {
			case tc.wantErr == "" && got != "":
				t.Fatalf("rejected: %s", got)
			case tc.wantErr != "" && !strings.HasPrefix(got, tc.wantErr):
				t.Fatalf("got %q, want an error starting %q", got, tc.wantErr)
			}
		})
	}
}

func TestBackoffBounds(t *testing.T) {
	p := TimeoutPolicy{Backoff: 100 * sim.Microsecond, BackoffMax: 500 * sim.Microsecond}
	want := []sim.Duration{
		100 * sim.Microsecond, // after attempt 0
		200 * sim.Microsecond,
		400 * sim.Microsecond,
		500 * sim.Microsecond, // capped
		500 * sim.Microsecond, // stays capped
	}
	for attempt, w := range want {
		if got := p.backoffFor(attempt); got != w {
			t.Fatalf("backoffFor(%d) = %v, want %v", attempt, got, w)
		}
	}
	// BackoffMax unset: doubling proceeds until the default cap.
	p.BackoffMax = 0
	if got := p.backoffFor(4); got != 1600*sim.Microsecond {
		t.Fatalf("backoffFor(4) with default cap = %v", got)
	}
}

func TestBackoffDefaultCapBoundsLongChains(t *testing.T) {
	// Regression: with BackoffMax unset, the old unbounded doubling
	// overflowed int64 after ~60 retries, handing the engine a negative
	// delay. A deep attempt index must now saturate at DefaultBackoffCap.
	p := TimeoutPolicy{Backoff: 100 * sim.Microsecond}
	for _, attempt := range []int{10, 63, 64, 200} {
		if got := p.backoffFor(attempt); got != DefaultBackoffCap {
			t.Fatalf("backoffFor(%d) = %v, want DefaultBackoffCap %v", attempt, got, DefaultBackoffCap)
		}
	}
	// An explicit cap still wins.
	p.BackoffMax = 300 * sim.Microsecond
	if got := p.backoffFor(200); got != 300*sim.Microsecond {
		t.Fatalf("backoffFor(200) with explicit cap = %v", got)
	}
}

func TestZeroPolicyDisabled(t *testing.T) {
	if (TimeoutPolicy{}).Enabled() {
		t.Fatal("zero policy must be disabled")
	}
	if !DefaultTimeoutPolicy().Enabled() {
		t.Fatal("default policy must be enabled")
	}
}

func newTimeoutRig(t *testing.T, policy TimeoutPolicy) *rig {
	t.Helper()
	r := newRig(t, 2, 1, sched.BootOptions{}, CompleteInterrupt)
	r.k.timeout = policy
	// Mirror New's budget arming (the rig swaps the policy in after
	// construction).
	if policy.Budget > 0 {
		r.k.retryBuckets = make([]retryBucket, len(r.k.SSDs))
		for i := range r.k.retryBuckets {
			r.k.retryBuckets[i].tokens = int64(policy.Budget)
		}
	}
	return r
}

func TestRetryExhaustionOnDeadDevice(t *testing.T) {
	pol := TimeoutPolicy{
		Timeout: 100 * sim.Microsecond, MaxRetries: 3,
		Backoff: 50 * sim.Microsecond, BackoffMax: 200 * sim.Microsecond,
		AbortCost: 10 * sim.Microsecond,
	}
	r := newTimeoutRig(t, pol)
	r.k.SSDs[0].SetOffline(true) // commands are silently dropped

	first := r.eng.Now()
	var comp Completion
	got := false
	r.k.SubmitIO(1, 0, nvme.Command{Op: nvme.OpRead, LBA: 1}, func(c Completion) {
		comp = c
		got = true
	})
	r.eng.RunUntil(sim.Time(100 * sim.Millisecond))

	if !got {
		t.Fatal("exhausted command never surfaced")
	}
	if comp.Status != nvme.StatusAborted || !comp.TimedOut {
		t.Fatalf("final status = %v timedout=%v, want aborted timeout", comp.Status, comp.TimedOut)
	}
	if comp.Retries != pol.MaxRetries {
		t.Fatalf("retries = %d, want %d", comp.Retries, pol.MaxRetries)
	}
	if comp.Result.SubmittedAt != first {
		t.Fatalf("SubmittedAt = %v, want first submit %v", comp.Result.SubmittedAt, first)
	}
	st := r.k.IOStats()
	if st.Timeouts != int64(pol.MaxRetries+1) || st.Aborts != st.Timeouts {
		t.Fatalf("timeouts=%d aborts=%d, want %d each", st.Timeouts, st.Aborts, pol.MaxRetries+1)
	}
	if st.Retries != int64(pol.MaxRetries) || st.Exhausted != 1 {
		t.Fatalf("retries=%d exhausted=%d", st.Retries, st.Exhausted)
	}
}

func TestAbortRacesLateCompletion(t *testing.T) {
	// Deadline far below the healthy ~30µs device latency: every attempt
	// times out, yet every attempt's CQE still arrives — each must be
	// counted late and dropped, never delivered twice.
	pol := TimeoutPolicy{
		Timeout: 5 * sim.Microsecond, MaxRetries: 2,
		Backoff: 10 * sim.Microsecond, AbortCost: sim.Microsecond,
	}
	r := newTimeoutRig(t, pol)

	deliveries := 0
	r.k.SubmitIO(1, 0, nvme.Command{Op: nvme.OpRead, LBA: 1}, func(c Completion) {
		deliveries++
		if c.Status != nvme.StatusAborted {
			t.Fatalf("delivered status %v", c.Status)
		}
	})
	r.eng.RunUntil(sim.Time(10 * sim.Millisecond))

	if deliveries != 1 {
		t.Fatalf("delivered %d times, want exactly once", deliveries)
	}
	st := r.k.IOStats()
	if st.LateCompletions != int64(pol.MaxRetries+1) {
		t.Fatalf("late completions = %d, want %d (one per aborted attempt)",
			st.LateCompletions, pol.MaxRetries+1)
	}
}

func TestTimeoutRecoversAfterStall(t *testing.T) {
	// A firmware stall shorter than the total retry budget: the command
	// must eventually succeed, reporting its retries and first-submit time.
	pol := TimeoutPolicy{
		Timeout: 200 * sim.Microsecond, MaxRetries: 5,
		Backoff: 100 * sim.Microsecond, BackoffMax: sim.Millisecond,
		AbortCost: 10 * sim.Microsecond,
	}
	r := newTimeoutRig(t, pol)
	r.k.SSDs[0].StallSubmissionQueues(500 * sim.Microsecond)

	first := r.eng.Now()
	var comp Completion
	got := false
	r.k.SubmitIO(1, 0, nvme.Command{Op: nvme.OpRead, LBA: 1}, func(c Completion) {
		comp = c
		got = true
	})
	r.eng.RunUntil(sim.Time(100 * sim.Millisecond))

	if !got {
		t.Fatal("command never completed")
	}
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("status = %v after stall cleared", comp.Status)
	}
	if comp.Retries == 0 {
		t.Fatal("stalled command succeeded without retrying")
	}
	if comp.Result.SubmittedAt != first {
		t.Fatalf("latency must span all attempts: SubmittedAt = %v, want %v",
			comp.Result.SubmittedAt, first)
	}
	if st := r.k.IOStats(); st.Exhausted != 0 {
		t.Fatalf("exhausted = %d for a recoverable stall", st.Exhausted)
	}
}

func TestTransientErrorsRetryWithoutAbort(t *testing.T) {
	pol := DefaultTimeoutPolicy()
	r := newTimeoutRig(t, pol)
	r.k.SSDs[0].SetTransientErrorRate(1.0)
	// Heal the device after the first attempt has failed.
	r.eng.Schedule(100*sim.Microsecond, func() { r.k.SSDs[0].SetTransientErrorRate(0) })

	var comp Completion
	got := false
	r.k.SubmitIO(1, 0, nvme.Command{Op: nvme.OpRead, LBA: 1}, func(c Completion) {
		comp = c
		got = true
	})
	r.eng.RunUntil(sim.Time(100 * sim.Millisecond))

	if !got || comp.Status != nvme.StatusSuccess {
		t.Fatalf("got=%v status=%v", got, comp.Status)
	}
	if comp.Retries == 0 {
		t.Fatal("transient error did not retry")
	}
	st := r.k.IOStats()
	if st.TransientErrors == 0 {
		t.Fatal("transient error not counted")
	}
	if st.Aborts != 0 {
		t.Fatalf("aborts = %d; transient retries must skip the abort", st.Aborts)
	}
}

func TestMediaErrorSurfacesWithoutRetry(t *testing.T) {
	pol := DefaultTimeoutPolicy()
	r := newTimeoutRig(t, pol)
	r.k.SSDs[0].MarkBadLBA(7)

	var comp Completion
	got := false
	r.k.SubmitIO(1, 0, nvme.Command{Op: nvme.OpRead, LBA: 7}, func(c Completion) {
		comp = c
		got = true
	})
	r.eng.RunUntil(sim.Time(10 * sim.Millisecond))

	if !got || comp.Status != nvme.StatusMediaError {
		t.Fatalf("got=%v status=%v, want media error", got, comp.Status)
	}
	if comp.Retries != 0 {
		t.Fatalf("uncorrectable media error retried %d times", comp.Retries)
	}
	if st := r.k.IOStats(); st.MediaErrors != 1 {
		t.Fatalf("media errors = %d", st.MediaErrors)
	}
}

func TestWriteCountersSliceTimeoutStats(t *testing.T) {
	// The write fault model reads WriteTimeouts/WriteRetries/WriteExhausted
	// to attribute tolerance activity to writes. An exhausted write to a
	// dead device must move all three; a read must move none of them.
	pol := TimeoutPolicy{
		Timeout: 100 * sim.Microsecond, MaxRetries: 2,
		Backoff: 50 * sim.Microsecond, AbortCost: 10 * sim.Microsecond,
	}
	r := newTimeoutRig(t, pol)
	r.k.SSDs[0].SetOffline(true)

	got := false
	r.k.SubmitIO(1, 0, nvme.Command{Op: nvme.OpWrite, LBA: 1}, func(c Completion) {
		if c.Status == nvme.StatusSuccess {
			t.Error("write to an offline device succeeded")
		}
		got = true
	})
	r.eng.RunUntil(sim.Time(50 * sim.Millisecond))
	if !got {
		t.Fatal("exhausted write never surfaced")
	}
	st := r.k.IOStats()
	if st.WriteTimeouts != int64(pol.MaxRetries+1) {
		t.Fatalf("write timeouts = %d, want %d", st.WriteTimeouts, pol.MaxRetries+1)
	}
	if st.WriteRetries != int64(pol.MaxRetries) || st.WriteExhausted != 1 {
		t.Fatalf("write retries=%d exhausted=%d", st.WriteRetries, st.WriteExhausted)
	}

	r2 := newTimeoutRig(t, pol)
	r2.k.SSDs[0].SetOffline(true)
	r2.k.SubmitIO(1, 0, nvme.Command{Op: nvme.OpRead, LBA: 1}, func(Completion) {})
	r2.eng.RunUntil(sim.Time(50 * sim.Millisecond))
	st2 := r2.k.IOStats()
	if st2.WriteTimeouts != 0 || st2.WriteRetries != 0 || st2.WriteExhausted != 0 {
		t.Fatalf("read moved the write slices: %+v", st2)
	}
	if st2.Timeouts == 0 {
		t.Fatal("read to an offline device never timed out")
	}
}

func TestRetryBudgetShedsEarly(t *testing.T) {
	// One retry token, no refill: the second timeout must shed to the
	// caller instead of grinding through the rest of the retry ladder.
	pol := TimeoutPolicy{
		Timeout: 100 * sim.Microsecond, MaxRetries: 5,
		Backoff: 50 * sim.Microsecond, AbortCost: 10 * sim.Microsecond,
		Budget: 1,
	}
	r := newTimeoutRig(t, pol)
	r.k.SSDs[0].SetOffline(true)

	var comp Completion
	got := false
	r.k.SubmitIO(1, 0, nvme.Command{Op: nvme.OpRead, LBA: 1}, func(c Completion) {
		comp = c
		got = true
	})
	r.eng.RunUntil(sim.Time(50 * sim.Millisecond))

	if !got {
		t.Fatal("shed command never surfaced")
	}
	if comp.Status != nvme.StatusAborted || !comp.TimedOut {
		t.Fatalf("status=%v timedout=%v, want aborted timeout", comp.Status, comp.TimedOut)
	}
	if comp.Retries != 1 {
		t.Fatalf("retries = %d, want 1 (the single budgeted retry)", comp.Retries)
	}
	st := r.k.IOStats()
	if st.RetryBudgetExhausted != 1 || st.ShedToReconstruct != 1 {
		t.Fatalf("budget counters: exhausted=%d shed=%d, want 1 each",
			st.RetryBudgetExhausted, st.ShedToReconstruct)
	}
	// Shedding is not MaxRetries exhaustion; the counters stay distinct.
	if st.Exhausted != 0 {
		t.Fatalf("exhausted = %d for a budget shed", st.Exhausted)
	}
	if st.Retries != 1 {
		t.Fatalf("granted retries = %d, want 1", st.Retries)
	}
}

func TestRetryBudgetRefills(t *testing.T) {
	// Refill faster than the retry cadence: the budget never blocks and
	// the command walks the full ladder to normal exhaustion.
	pol := TimeoutPolicy{
		Timeout: 100 * sim.Microsecond, MaxRetries: 3,
		Backoff: 50 * sim.Microsecond, AbortCost: 10 * sim.Microsecond,
		Budget: 1, BudgetRefill: 120 * sim.Microsecond,
	}
	r := newTimeoutRig(t, pol)
	r.k.SSDs[0].SetOffline(true)

	got := false
	r.k.SubmitIO(1, 0, nvme.Command{Op: nvme.OpRead, LBA: 1}, func(Completion) { got = true })
	r.eng.RunUntil(sim.Time(50 * sim.Millisecond))

	if !got {
		t.Fatal("command never surfaced")
	}
	st := r.k.IOStats()
	if st.RetryBudgetExhausted != 0 {
		t.Fatalf("refilling budget denied %d retries", st.RetryBudgetExhausted)
	}
	if st.Exhausted != 1 || st.Retries != int64(pol.MaxRetries) {
		t.Fatalf("exhausted=%d retries=%d, want normal ladder exhaustion", st.Exhausted, st.Retries)
	}
}

func TestOverloadWatermarkHysteresis(t *testing.T) {
	r := newTimeoutRig(t, TimeoutPolicy{
		Timeout: 100 * sim.Microsecond, OverloadWatermark: 4,
	})
	k := r.k
	base := k.attemptTimeout()
	if base != 100*sim.Microsecond {
		t.Fatalf("healthy attempt timeout = %v", base)
	}
	k.noteInflight(4)
	if k.Overloaded() {
		t.Fatal("overloaded at the watermark; latch must require crossing it")
	}
	k.noteInflight(1)
	if !k.Overloaded() {
		t.Fatal("not overloaded past the watermark")
	}
	// Unset scale defaults to 2.
	if got := k.attemptTimeout(); got != 2*base {
		t.Fatalf("overloaded attempt timeout = %v, want %v", got, 2*base)
	}
	// Hysteresis: dropping to the watermark is not enough...
	k.noteInflight(-1)
	if !k.Overloaded() {
		t.Fatal("overload cleared at the watermark; hysteresis requires 3/4")
	}
	// ...it must fall to three quarters of it.
	k.noteInflight(-1)
	if k.Overloaded() {
		t.Fatalf("overload not cleared at 3/4 watermark (inflight=%d)", k.inflight)
	}
	k.noteInflight(2)
	if !k.Overloaded() {
		t.Fatal("re-entry past the watermark not latched")
	}
	if got := k.IOStats().OverloadEntered; got != 2 {
		t.Fatalf("OverloadEntered = %d, want 2", got)
	}
}

func TestHealthTrackerFedByManagedPath(t *testing.T) {
	pol := TimeoutPolicy{
		Timeout: 4 * sim.Millisecond, MaxRetries: 3,
		Backoff: 50 * sim.Microsecond, AbortCost: 10 * sim.Microsecond,
	}
	r := newTimeoutRig(t, pol)
	r.k.health = health.NewTracker(len(r.k.SSDs))

	done := 0
	for i := 0; i < 20; i++ {
		r.k.SubmitIO(1, 0, nvme.Command{Op: nvme.OpRead, LBA: int64(i)}, func(Completion) { done++ })
		r.eng.RunUntil(r.eng.Now().Add(sim.Millisecond))
	}
	if done != 20 {
		t.Fatalf("completed %d/20", done)
	}
	s := r.k.Health().Snapshot(0)
	if s.Samples != 20 {
		t.Fatalf("tracker saw %d samples, want 20", s.Samples)
	}
	// Per-attempt latencies, not end-to-end-with-backoff: a healthy read
	// is ~30µs device-side plus the idle-wake host path (~100µs at this
	// cadence), far below the 4ms deadline.
	if s.SRTT < 10*sim.Microsecond || s.SRTT > 300*sim.Microsecond {
		t.Fatalf("srtt = %v, want the healthy ≈30-150µs baseline", s.SRTT)
	}

	// A drop-out feeds timeouts and granted retries to the tracker too.
	r.k.SSDs[0].SetOffline(true)
	r.k.SubmitIO(1, 0, nvme.Command{Op: nvme.OpRead, LBA: 99}, func(Completion) {})
	r.eng.RunUntil(r.eng.Now().Add(50 * sim.Millisecond))
	s = r.k.Health().Snapshot(0)
	if s.Timeouts != int64(pol.MaxRetries+1) {
		t.Fatalf("tracker timeouts = %d, want %d", s.Timeouts, pol.MaxRetries+1)
	}
	if s.Retries != int64(pol.MaxRetries) {
		t.Fatalf("tracker retries = %d, want %d", s.Retries, pol.MaxRetries)
	}
	if s.Suspicion == 0 {
		t.Fatal("drop-out raised no suspicion")
	}
}

// TestWriteRetryDropOutRecovery is the write-path retry-exhaustion
// matrix for a drive that drops out and comes back: accounting must stay
// consistent whether recovery lands mid-retry or after exhaustion, and a
// drop-out (no CQE ever) must not be confused with a stall (late CQEs).
func TestWriteRetryDropOutRecovery(t *testing.T) {
	pol := TimeoutPolicy{
		Timeout: 100 * sim.Microsecond, MaxRetries: 5,
		Backoff: 50 * sim.Microsecond, AbortCost: 10 * sim.Microsecond,
	}

	t.Run("recovers mid-retry", func(t *testing.T) {
		r := newTimeoutRig(t, pol)
		r.k.SSDs[0].SetOffline(true)
		// Back online while the retry ladder is still climbing.
		r.eng.Schedule(200*sim.Microsecond, func() { r.k.SSDs[0].SetOffline(false) })

		var comp Completion
		got := false
		r.k.SubmitIO(1, 0, nvme.Command{Op: nvme.OpWrite, LBA: 1}, func(c Completion) {
			comp = c
			got = true
		})
		r.eng.RunUntil(sim.Time(50 * sim.Millisecond))

		if !got || comp.Status != nvme.StatusSuccess {
			t.Fatalf("got=%v status=%v, want success after recovery", got, comp.Status)
		}
		if comp.Retries == 0 || comp.Retries > pol.MaxRetries {
			t.Fatalf("retries = %d, want mid-ladder recovery", comp.Retries)
		}
		st := r.k.IOStats()
		if st.WriteExhausted != 0 || st.Exhausted != 0 {
			t.Fatalf("recovered write counted exhausted: %+v", st)
		}
		// Offline drops are silent — no CQE ever arrives for the dropped
		// attempts, so nothing may be counted late.
		if st.LateCompletions != 0 {
			t.Fatalf("late completions = %d for silently dropped attempts", st.LateCompletions)
		}
		if st.WriteTimeouts != int64(comp.Retries) || st.WriteRetries != int64(comp.Retries) {
			t.Fatalf("write timeouts=%d retries=%d, want %d each",
				st.WriteTimeouts, st.WriteRetries, comp.Retries)
		}
	})

	t.Run("recovers after exhaustion", func(t *testing.T) {
		short := pol
		short.MaxRetries = 1
		r := newTimeoutRig(t, short)
		r.k.SSDs[0].SetOffline(true)
		r.eng.Schedule(5*sim.Millisecond, func() { r.k.SSDs[0].SetOffline(false) })

		var comp Completion
		got := false
		r.k.SubmitIO(1, 0, nvme.Command{Op: nvme.OpWrite, LBA: 1}, func(c Completion) {
			comp = c
			got = true
		})
		r.eng.RunUntil(sim.Time(50 * sim.Millisecond))

		if !got || comp.Status != nvme.StatusAborted || !comp.TimedOut {
			t.Fatalf("got=%v status=%v, want surfaced exhaustion", got, comp.Status)
		}
		st := r.k.IOStats()
		if st.WriteExhausted != 1 || st.LateCompletions != 0 {
			t.Fatalf("exhausted=%d late=%d, want 1 and 0", st.WriteExhausted, st.LateCompletions)
		}
	})

	t.Run("stall yields late CQEs not drops", func(t *testing.T) {
		r := newTimeoutRig(t, pol)
		r.k.SSDs[0].StallSubmissionQueues(500 * sim.Microsecond)

		var comp Completion
		got := false
		r.k.SubmitIO(1, 0, nvme.Command{Op: nvme.OpWrite, LBA: 1}, func(c Completion) {
			comp = c
			got = true
		})
		r.eng.RunUntil(sim.Time(50 * sim.Millisecond))

		if !got || comp.Status != nvme.StatusSuccess {
			t.Fatalf("got=%v status=%v, want success after stall", got, comp.Status)
		}
		st := r.k.IOStats()
		if st.Timeouts == 0 {
			t.Fatal("stall produced no timeouts")
		}
		// Every stalled attempt's CQE eventually drains: each timed-out
		// attempt must be accounted late, none lost.
		if st.LateCompletions != st.Timeouts {
			t.Fatalf("late=%d timeouts=%d, want every stalled CQE accounted",
				st.LateCompletions, st.Timeouts)
		}
		if st.WriteExhausted != 0 {
			t.Fatalf("recoverable stall exhausted the write: %+v", st)
		}
	})
}
