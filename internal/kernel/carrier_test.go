package kernel

import (
	"testing"
	"unsafe"

	"repro/internal/nvme"
	"repro/internal/sim"
)

// TestManagedSteadyStateAllocs: once the carrier freelists are warm, a
// command under the timeout policy on a healthy drive allocates nothing —
// the attempt deadline re-arms the carrier's own timer.
func TestManagedSteadyStateAllocs(t *testing.T) {
	r := newTimeoutRig(t, DefaultTimeoutPolicy())
	cmd := nvme.Command{Op: nvme.OpRead, LBA: 1}
	delivered := 0
	onDone := func(c Completion) {
		if c.Status != nvme.StatusSuccess {
			t.Fatalf("status %v on a healthy drive", c.Status)
		}
		delivered++
	}
	io := func() {
		r.k.SubmitIO(1, 0, cmd, onDone)
		r.eng.RunUntil(r.eng.Now().Add(200 * sim.Microsecond))
	}
	for i := 0; i < 16; i++ {
		io()
	}
	avg := testing.AllocsPerRun(200, io)
	if avg > 0 {
		t.Fatalf("managed submit allocates %.2f per I/O in steady state, want 0", avg)
	}
	if want := 16 + 1 + 200; delivered != want {
		t.Fatalf("delivered %d, want %d", delivered, want)
	}
	if st := r.k.IOStats(); st.Timeouts != 0 {
		t.Fatalf("timeouts = %d on a healthy drive", st.Timeouts)
	}
}

// TestCarrierSize: a command dropped by an offline drive leaves its
// kioReq as garbage, so the carrier's size class shows in allocated bytes
// per I/O on faulty workloads; it must stay within 144 bytes.
func TestCarrierSize(t *testing.T) {
	if s := unsafe.Sizeof(kioReq{}); s > 144 {
		t.Fatalf("kioReq is %d bytes, want <= 144", s)
	}
}

// TestAttemptCarrierReuseAfterTimeout: an attempt that timed out (CQE
// landing after the abort surfaced) hands its carrier to the next
// command, whose deadline must be its own — the old one never fires into
// the new attempt.
func TestAttemptCarrierReuseAfterTimeout(t *testing.T) {
	pol := TimeoutPolicy{Timeout: 400 * sim.Microsecond, AbortCost: sim.Microsecond}
	r := newTimeoutRig(t, pol)
	r.k.SSDs[0].StallSubmissionQueues(sim.Millisecond)

	var statuses []nvme.Status
	onDone := func(c Completion) { statuses = append(statuses, c.Status) }
	r.k.SubmitIO(1, 0, nvme.Command{Op: nvme.OpRead, LBA: 1}, onDone)
	r.eng.RunUntil(sim.Time(3 * sim.Millisecond))
	st := r.k.IOStats()
	if len(statuses) != 1 || statuses[0] != nvme.StatusAborted || st.Timeouts != 1 || st.LateCompletions != 1 {
		t.Fatalf("first command: statuses %v, timeouts %d, late %d; want one abort, one late CQE",
			statuses, st.Timeouts, st.LateCompletions)
	}
	if len(r.k.freeAtt) != 1 {
		t.Fatalf("freelist holds %d attempt carriers, want the timed-out one", len(r.k.freeAtt))
	}
	a := r.k.freeAtt[0]
	if a.timer.Armed() {
		t.Fatal("a recycled attempt carrier still has its deadline armed")
	}

	r.k.SubmitIO(1, 0, nvme.Command{Op: nvme.OpRead, LBA: 2}, onDone)
	if len(r.k.freeAtt) != 0 || !a.timer.Armed() {
		t.Fatal("second command did not reuse the timed-out carrier with a fresh deadline")
	}
	r.eng.RunUntil(sim.Time(10 * sim.Millisecond))
	st = r.k.IOStats()
	if len(statuses) != 2 || statuses[1] != nvme.StatusSuccess || st.Timeouts != 1 {
		t.Fatalf("second command: statuses %v, timeouts %d; want success and no new timeout",
			statuses, st.Timeouts)
	}
	if len(r.k.freeAtt) != 1 || r.k.freeAtt[0] != a || a.timer.Armed() {
		t.Fatal("carrier not returned disarmed after a clean completion")
	}
}

// TestAttemptCarrierReuseAfterAbortRace: the CQE lands while the abort
// round-trip is still pending, so abort releases the carrier and the
// retry takes it straight back. Every attempt must be counted once, the
// command delivered once, and a later healthy command on the same carrier
// must see no stale deadline.
func TestAttemptCarrierReuseAfterAbortRace(t *testing.T) {
	pol := TimeoutPolicy{
		Timeout: 5 * sim.Microsecond, MaxRetries: 1,
		Backoff: 10 * sim.Microsecond, AbortCost: 500 * sim.Microsecond,
	}
	r := newTimeoutRig(t, pol)

	var statuses []nvme.Status
	onDone := func(c Completion) { statuses = append(statuses, c.Status) }
	r.k.SubmitIO(1, 0, nvme.Command{Op: nvme.OpRead, LBA: 1}, onDone)
	r.eng.RunUntil(sim.Time(10 * sim.Millisecond))
	st := r.k.IOStats()
	if len(statuses) != 1 || statuses[0] != nvme.StatusAborted {
		t.Fatalf("statuses %v, want exactly one abort", statuses)
	}
	if st.Timeouts != 2 || st.LateCompletions != 2 || st.Retries != 1 {
		t.Fatalf("timeouts %d, late %d, retries %d; want 2, 2, 1",
			st.Timeouts, st.LateCompletions, st.Retries)
	}
	// Both attempts ran on one carrier: abort released it before the
	// retry was issued.
	if len(r.k.freeAtt) != 1 || r.k.freeAtt[0].timer.Armed() {
		t.Fatalf("freelist holds %d attempt carriers, want one disarmed", len(r.k.freeAtt))
	}
	a := r.k.freeAtt[0]

	r.k.timeout = DefaultTimeoutPolicy()
	r.k.SubmitIO(1, 0, nvme.Command{Op: nvme.OpRead, LBA: 2}, onDone)
	r.eng.RunUntil(sim.Time(20 * sim.Millisecond))
	st = r.k.IOStats()
	if len(statuses) != 2 || statuses[1] != nvme.StatusSuccess || st.Timeouts != 2 {
		t.Fatalf("healthy command after the race: statuses %v, timeouts %d", statuses, st.Timeouts)
	}
	if len(r.k.freeAtt) != 1 || r.k.freeAtt[0] != a || a.timer.Armed() {
		t.Fatal("healthy command did not reuse and return the raced carrier")
	}
}

// TestManagedOutcomesReachCaller: the managed path hands one Completion
// by pointer from the CQE through the attempt and command carriers, which
// amend it in place. For each outcome, and on each of the three ways a
// CQE reaches the host (interrupt, coalesced interrupt, polling), the
// caller's copy must carry the first submission instant, the retry count,
// the final status and the timeout flag, stamped when it was delivered.
func TestManagedOutcomesReachCaller(t *testing.T) {
	const submitAt = sim.Time(50 * sim.Microsecond)
	fast := TimeoutPolicy{
		Timeout: 100 * sim.Microsecond, MaxRetries: 2,
		Backoff: 50 * sim.Microsecond, AbortCost: 10 * sim.Microsecond,
	}
	budget := fast
	budget.MaxRetries, budget.Budget = 5, 1
	cases := []struct {
		name     string
		pol      TimeoutPolicy
		fault    func(r *rig) // applied at submitAt
		status   nvme.Status
		retries  int
		timedOut bool
	}{
		{name: "success", pol: DefaultTimeoutPolicy(),
			fault: func(*rig) {}, status: nvme.StatusSuccess},
		{name: "transient-then-retry", pol: DefaultTimeoutPolicy(),
			fault: func(r *rig) {
				r.k.SSDs[0].SetTransientErrorRate(1.0)
				r.eng.After(100*sim.Microsecond, func() { r.k.SSDs[0].SetTransientErrorRate(0) })
			},
			status: nvme.StatusSuccess, retries: 1},
		{name: "timeout-exhausted", pol: fast,
			fault:  func(r *rig) { r.k.SSDs[0].SetOffline(true) },
			status: nvme.StatusAborted, retries: 2, timedOut: true},
		{name: "budget-shed", pol: budget,
			fault:  func(r *rig) { r.k.SSDs[0].SetOffline(true) },
			status: nvme.StatusAborted, retries: 1, timedOut: true},
	}
	paths := []struct {
		name     string
		mode     CompletionMode
		coalesce Coalescing
	}{
		{name: "interrupt", mode: CompleteInterrupt},
		{name: "coalesced", mode: CompleteInterrupt,
			coalesce: Coalescing{Threshold: 4, Timeout: 20 * sim.Microsecond}},
		{name: "polling", mode: CompletePolling},
	}
	for _, p := range paths {
		for _, tc := range cases {
			t.Run(p.name+"/"+tc.name, func(t *testing.T) {
				r := newTimeoutRig(t, tc.pol)
				r.k.mode = p.mode
				r.k.SetCoalescing(p.coalesce)
				var got []Completion
				var deliveredAt sim.Time
				r.eng.At(submitAt, func() {
					tc.fault(r)
					r.k.SubmitIO(1, 0, nvme.Command{Op: nvme.OpRead, LBA: 1}, func(c Completion) {
						got = append(got, c)
						deliveredAt = r.eng.Now()
					})
				})
				r.eng.RunUntil(sim.Time(50 * sim.Millisecond))
				if len(got) != 1 {
					t.Fatalf("%d completions delivered, want 1", len(got))
				}
				c := got[0]
				if c.Result.SubmittedAt != submitAt {
					t.Errorf("SubmittedAt = %v, want the first submit %v", c.Result.SubmittedAt, submitAt)
				}
				if c.Retries != tc.retries || c.Status != tc.status || c.TimedOut != tc.timedOut {
					t.Errorf("retries %d, status %v, timed out %v; want %d, %v, %v",
						c.Retries, c.Status, c.TimedOut, tc.retries, tc.status, tc.timedOut)
				}
				if c.DeliveredAt != deliveredAt {
					t.Errorf("DeliveredAt = %v, delivered at %v", c.DeliveredAt, deliveredAt)
				}
				if r.k.inflight != 0 || len(r.k.freeMng) != 1 {
					t.Errorf("inflight %d, %d command carriers free; want 0 and 1",
						r.k.inflight, len(r.k.freeMng))
				}
			})
		}
	}
}
