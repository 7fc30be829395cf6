package kernel

import (
	"testing"

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
