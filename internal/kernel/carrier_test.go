package kernel

import (
	"testing"
	"unsafe"

	"repro/internal/irq"
	"repro/internal/nvme"
	"repro/internal/rng"
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

// TestCompletionPathsAllocateNothing: every hand-off fills the kernel's
// one Completion and passes it by pointer, so once the carrier freelists
// are warm no completion path allocates: not the untolerant interrupt
// path (local or remote delivery), polling, a coalesced batch, or the
// abort the timeout path synthesizes. A record built on the stack and
// passed by pointer through the receiver would escape and show here.
func TestCompletionPathsAllocateNothing(t *testing.T) {
	stall := TimeoutPolicy{Timeout: 100 * sim.Microsecond, AbortCost: 10 * sim.Microsecond}
	cases := []struct {
		name     string
		setup    func(t *testing.T, r *rig) int // returns the submitting CPU
		pol      TimeoutPolicy
		coalesce sim.Duration // interrupt withhold timeout at boot
		batch    int          // commands per I/O round
		remote   bool         // expected delivery
		timedOut bool         // expected outcome: a synthesized abort
	}{
		{name: "interrupt-local", batch: 1, setup: func(*testing.T, *rig) int { return 1 }},
		{name: "interrupt-remote", batch: 1, remote: true, setup: func(t *testing.T, r *rig) int {
			// Scatter the vectors as irqbalance does at boot, taking the
			// first layout that puts a vector off its queue CPU, and
			// submit from that queue.
			ncpu := r.sch.NumCPUs()
			for seed := uint64(1); seed <= 16; seed++ {
				ic := irq.New(r.eng, r.sch, irq.Config{NumSSDs: 1, NumCPUs: ncpu, Seed: seed, StartBalanced: true})
				for q := 0; q < ncpu; q++ {
					if ic.EffectiveCPU(0, q) != q {
						r.k.IRQ = ic
						return q
					}
				}
			}
			t.Fatal("no irqbalance layout scattered a vector off its queue CPU")
			return 0
		}},
		{name: "polling", batch: 1, setup: func(_ *testing.T, r *rig) int {
			r.k.mode = CompletePolling
			return 1
		}},
		{name: "coalesced", batch: coalesceBatch, coalesce: 20 * sim.Microsecond,
			setup: func(*testing.T, *rig) int { return 1 }},
		{name: "timeout-abort", batch: 1, pol: stall, timedOut: true, setup: func(*testing.T, *rig) int { return 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newCoalescedTimeoutRig(t, tc.pol, tc.coalesce)
			cpu := tc.setup(t, r)
			ssd := r.k.SSDs[0]
			cmd := nvme.Command{Op: nvme.OpRead, LBA: 1}
			delivered := 0
			onDone := ReceiverFunc(func(c *Completion) {
				if c.Delivery.Remote != tc.remote || c.TimedOut != tc.timedOut {
					t.Fatalf("remote %v, timed out %v; want %v, %v", c.Delivery.Remote, c.TimedOut, tc.remote, tc.timedOut)
				}
				delivered++
			})
			io := func() {
				if tc.timedOut {
					// Hold the command in the SQ past its deadline; its
					// CQE lands late, after the abort surfaced it.
					ssd.StallSubmissionQueues(300 * sim.Microsecond)
				}
				for i := 0; i < tc.batch; i++ {
					r.k.SubmitIOTo(cpu, 0, cmd, onDone)
				}
				r.eng.RunUntil(r.eng.Now().Add(sim.Millisecond))
			}
			for i := 0; i < 16; i++ {
				io()
			}
			if avg := testing.AllocsPerRun(200, io); avg > 0 {
				t.Fatalf("%.2f allocations per I/O round in steady state, want 0", avg)
			}
			if want := (16 + 1 + 200) * tc.batch; delivered != want {
				t.Fatalf("delivered %d, want %d", delivered, want)
			}
			if st := r.k.IOStats(); tc.timedOut && st.LateCompletions != int64(delivered) {
				t.Fatalf("%d late CQEs for %d aborts", st.LateCompletions, delivered)
			}
			checkFreelists(t, r.k)
		})
	}
}

// TestCarrierSize: every in-flight I/O holds one kioReq, and the
// freelist keeps as many as were ever in flight at once, so the carrier's
// size class sets the kernel's share of the heap on deep-queue workloads;
// it must stay within 144 bytes.
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
				r.eng.Schedule(100*sim.Microsecond, func() { r.k.SSDs[0].SetTransientErrorRate(0) })
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
		coalesce sim.Duration
	}{
		{name: "interrupt", mode: CompleteInterrupt},
		{name: "coalesced", mode: CompleteInterrupt, coalesce: 20 * sim.Microsecond},
		{name: "polling", mode: CompletePolling},
	}
	for _, p := range paths {
		for _, tc := range cases {
			t.Run(p.name+"/"+tc.name, func(t *testing.T) {
				r := newCoalescedTimeoutRig(t, tc.pol, p.coalesce)
				r.k.mode = p.mode
				var got []Completion
				var deliveredAt sim.Time
				r.eng.ScheduleAt(submitAt, func() {
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

// checkFreelists fails the test if a carrier sits on its freelist twice
// (it was released twice) or was released still holding per-I/O state.
func checkFreelists(t *testing.T, k *Kernel) {
	t.Helper()
	reqs := map[*kioReq]bool{}
	for _, r := range k.freeReqs {
		if reqs[r] {
			t.Fatal("a kioReq is on the freelist twice")
		}
		reqs[r] = true
		if r.to.done != nil || r.to.att != nil {
			t.Fatal("a free kioReq still points at its sink")
		}
	}
	atts := map[*attReq]bool{}
	for _, a := range k.freeAtt {
		if atts[a] {
			t.Fatal("an attReq is on the freelist twice")
		}
		atts[a] = true
		if a.m != nil || a.timer.Armed() {
			t.Fatal("a free attReq still holds its command or an armed deadline")
		}
	}
	mngs := map[*mngReq]bool{}
	for _, m := range k.freeMng {
		if mngs[m] {
			t.Fatal("an mngReq is on the freelist twice")
		}
		mngs[m] = true
		if m.done != nil {
			t.Fatal("a free mngReq still holds the caller's done")
		}
	}
}

// TestOfflineSteadyStateAllocs: the device's drop notice hands a lost
// command's carriers back, so once the freelists are warm a command an
// offline drive loses allocates nothing. Each command goes out while the
// drive is up and is lost in flight when it drops; on the managed path
// its deadline still fires, the abort surfaces, and the retry is lost
// again at the doorbell. On the untolerant path the caller never hears
// back, as on an untuned host.
func TestOfflineSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		pol       TimeoutPolicy
		delivered int // per command
		drops     int // per command
		attempts  int // attempt carriers on the freelist at the end
	}{
		{name: "managed", pol: TimeoutPolicy{
			Timeout: 100 * sim.Microsecond, MaxRetries: 1,
			Backoff: 50 * sim.Microsecond, AbortCost: 10 * sim.Microsecond,
		}, delivered: 1, drops: 2, attempts: 1},
		{name: "untolerant", delivered: 0, drops: 1, attempts: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newTimeoutRig(t, tc.pol)
			ssd := r.k.SSDs[0]
			cmd := nvme.Command{Op: nvme.OpRead, LBA: 1}
			delivered := 0
			onDone := func(c Completion) {
				if c.Status != nvme.StatusAborted || !c.TimedOut {
					t.Fatalf("status %v, timed out %v; want a timed-out abort", c.Status, c.TimedOut)
				}
				delivered++
			}
			io := func() {
				ssd.SetOffline(false)
				r.k.SubmitIO(1, 0, cmd, onDone)
				r.eng.RunUntil(r.eng.Now().Add(10 * sim.Microsecond))
				ssd.SetOffline(true) // the read is on the media: lost before its CQE
				r.eng.RunUntil(r.eng.Now().Add(sim.Millisecond))
			}
			for i := 0; i < 16; i++ {
				io()
			}
			avg := testing.AllocsPerRun(200, io)
			if avg > 0 {
				t.Fatalf("a dropped command allocates %.2f per I/O in steady state, want 0", avg)
			}
			const ios = 16 + 1 + 200
			if want := ios * tc.delivered; delivered != want {
				t.Fatalf("delivered %d, want %d", delivered, want)
			}
			if got, want := ssd.Stats().DroppedCmds, int64(ios*tc.drops); got != want {
				t.Fatalf("device dropped %d commands, want %d", got, want)
			}
			if st := r.k.IOStats(); st.LateCompletions != 0 {
				t.Fatalf("%d late completions counted, but no CQE ever arrived", st.LateCompletions)
			}
			checkFreelists(t, r.k)
			if len(r.k.freeReqs) != 1 || len(r.k.freeAtt) != tc.attempts || r.k.inflight != 0 {
				t.Fatalf("%d kioReqs and %d attReqs free, inflight %d; want 1, %d, 0",
					len(r.k.freeReqs), len(r.k.freeAtt), r.k.inflight, tc.attempts)
			}
		})
	}
}

// TestDroppedAttemptReleasedOnce: the drop notice can reach an attempt at
// three points of its race with the deadline. Before the deadline, and
// while the abort round-trip is pending, the abort releases the attempt
// carrier; once the abort has surfaced the command, the notice releases
// it. In each case the kioReq comes back at the drop, the attempt carrier
// comes back exactly once and at the right instant, the command is
// delivered once, and no CQE is counted late, since none arrived.
func TestDroppedAttemptReleasedOnce(t *testing.T) {
	type fault struct {
		at  sim.Duration
		run func(ssd *nvme.Controller)
	}
	offline := func(at sim.Duration) fault {
		return fault{at, func(ssd *nvme.Controller) { ssd.SetOffline(true) }}
	}
	stall := fault{0, func(ssd *nvme.Controller) { ssd.StallSubmissionQueues(300 * sim.Microsecond) }}
	cases := []struct {
		name     string
		abort    sim.Duration // AbortCost; the deadline is 100 µs
		faults   []fault
		held     sim.Duration // after the drop, before the attempt carrier is released
		released sim.Duration // by when it must be back
	}{
		// In flight at 10 µs, lost at its ~30 µs CQE; deadline 100 µs, abort 110 µs.
		{name: "before-deadline", abort: 10 * sim.Microsecond,
			faults: []fault{offline(10 * sim.Microsecond)},
			held:   50 * sim.Microsecond, released: 111 * sim.Microsecond},
		// Held in the SQ to ~300 µs, past the deadline; the abort is
		// pending until 600 µs.
		{name: "abort-pending", abort: 500 * sim.Microsecond,
			faults: []fault{stall, offline(150 * sim.Microsecond)},
			held:   350 * sim.Microsecond, released: 601 * sim.Microsecond},
		// The abort surfaces the command at 110 µs; the SQ releases it to
		// an offline drive at ~300 µs.
		{name: "after-abort", abort: 10 * sim.Microsecond,
			faults: []fault{stall, offline(200 * sim.Microsecond)},
			held:   150 * sim.Microsecond, released: 350 * sim.Microsecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newTimeoutRig(t, TimeoutPolicy{Timeout: 100 * sim.Microsecond, AbortCost: tc.abort})
			ssd := r.k.SSDs[0]
			start := r.eng.Now()
			for _, f := range tc.faults {
				f := f
				r.eng.ScheduleAt(start.Add(f.at), func() { f.run(ssd) })
			}
			var got []Completion
			onDone := func(c Completion) { got = append(got, c) }
			r.eng.ScheduleAt(start, func() {
				r.k.SubmitIO(1, 0, nvme.Command{Op: nvme.OpRead, LBA: 1}, onDone)
			})

			r.eng.RunUntil(start.Add(tc.held))
			checkFreelists(t, r.k)
			if len(r.k.freeAtt) != 0 {
				t.Fatalf("at %v the attempt carrier is already free", tc.held)
			}
			r.eng.RunUntil(start.Add(tc.released))
			checkFreelists(t, r.k)
			if ssd.Stats().DroppedCmds != 1 {
				t.Fatalf("the device dropped %d commands by %v, want 1", ssd.Stats().DroppedCmds, tc.released)
			}
			if len(r.k.freeAtt) != 1 || len(r.k.freeReqs) != 1 {
				t.Fatalf("at %v: %d attReqs and %d kioReqs free, want 1 each",
					tc.released, len(r.k.freeAtt), len(r.k.freeReqs))
			}
			a, kr := r.k.freeAtt[0], r.k.freeReqs[0]

			// A healthy command, under a deadline no tick or IRQ delay
			// reaches.
			ssd.SetOffline(false)
			r.k.timeout = DefaultTimeoutPolicy()
			r.k.SubmitIO(1, 0, nvme.Command{Op: nvme.OpRead, LBA: 2}, onDone)
			r.eng.RunUntil(start.Add(10 * sim.Millisecond))
			checkFreelists(t, r.k)
			if len(got) != 2 || got[0].Status != nvme.StatusAborted || !got[0].TimedOut ||
				got[1].Status != nvme.StatusSuccess {
				t.Fatalf("delivered %+v; want one timed-out abort, then one success", got)
			}
			st := r.k.IOStats()
			if st.Timeouts != 1 || st.LateCompletions != 0 {
				t.Fatalf("timeouts %d, late completions %d; want 1, 0", st.Timeouts, st.LateCompletions)
			}
			if len(r.k.freeAtt) != 1 || r.k.freeAtt[0] != a || len(r.k.freeReqs) != 1 || r.k.freeReqs[0] != kr {
				t.Fatal("the next command did not reuse the dropped command's carriers")
			}
		})
	}
}

// FuzzCarrierLifetime sends a burst of SubmitIOs through random drive
// drop-outs and recoveries, SQ stalls and transient-error bursts, drawn
// from seed. plan picks the path: its low two bits the completion path
// (interrupt, coalesced, polling) or the untolerant host with no timeout
// policy, bit 2 arms retry budgets, bit 3 an overload watermark, and the
// high four bits add faults. Once the drive is back and the burst has
// drained:
//   - each managed command's receiver has been called exactly once, and
//     the untolerant host's at most once, with every other command
//     dropped by the device;
//   - every delivered Completion describes the command it was issued
//     for, with no field left over from the previous hand-off through
//     the kernel's one shared record: its Op and LBA, the submitting CPU
//     as Cmd.Queue, drive 0, the submit instant, delivery now, no retry
//     or timeout on the untolerant host, at most MaxRetries retries and
//     a timeout only as an abort on the managed one, and no wake penalty
//     when polling;
//   - every deadline that fired was answered by a late CQE or a drop,
//     so late completions count only real CQEs;
//   - no carrier is on its freelist twice or holds stale state, and
//     nothing is in flight.
//
// The committed corpus under testdata/fuzz makes plain `go test` replay
// it; the nightly workflow fuzzes it for new inputs.
func FuzzCarrierLifetime(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, plan uint8) {
		rnd := rng.New(seed)
		managed := plan&3 != 3
		var pol TimeoutPolicy
		if managed {
			pol = TimeoutPolicy{
				Timeout:    sim.Duration(50+rnd.Intn(250)) * sim.Microsecond,
				MaxRetries: rnd.Intn(5),
				Backoff:    sim.Duration(10+rnd.Intn(90)) * sim.Microsecond,
				BackoffMax: 400 * sim.Microsecond,
				AbortCost:  sim.Duration(1+rnd.Intn(300)) * sim.Microsecond,
			}
			if plan&4 != 0 {
				pol.Budget, pol.BudgetRefill = 2, 200*sim.Microsecond
			}
			if plan&8 != 0 {
				pol.OverloadWatermark = 4
			}
		}
		var coalesce sim.Duration
		if plan&3 == 1 {
			coalesce = 20 * sim.Microsecond
		}
		r := newCoalescedTimeoutRig(t, pol, coalesce)
		if plan&3 == 2 {
			r.k.mode = CompletePolling
		}
		ssd := r.k.SSDs[0]
		const window = 2 * sim.Millisecond
		at := func() sim.Time { return sim.Time(rnd.Int63n(int64(window))) }
		span := func() sim.Duration { return sim.Duration(5+rnd.Intn(400)) * sim.Microsecond }

		for i := 1 + int(plan>>4); i > 0; i-- {
			from, d := at(), span()
			switch rnd.Intn(3) {
			case 0:
				r.eng.ScheduleAt(from, func() { ssd.SetOffline(true) })
				r.eng.ScheduleAt(from.Add(d), func() { ssd.SetOffline(false) })
			case 1:
				r.eng.ScheduleAt(from, func() { ssd.StallSubmissionQueues(d) })
			default:
				r.eng.ScheduleAt(from, func() { ssd.SetTransientErrorRate(1) })
				r.eng.ScheduleAt(from.Add(d), func() { ssd.SetTransientErrorRate(0) })
			}
		}
		r.eng.ScheduleAt(sim.Time(window+sim.Millisecond), func() {
			ssd.SetOffline(false)
			ssd.SetTransientErrorRate(0)
		})

		polling := r.k.mode == CompletePolling
		n := 16 + rnd.Intn(49)
		calls := make([]int, n)
		for i := range calls {
			i := i
			cmd := nvme.Command{Op: nvme.Opcode(rnd.Intn(3)), LBA: int64(rnd.Intn(64))}
			cpu := rnd.Intn(2)
			submitAt := at()
			check := ReceiverFunc(func(c *Completion) {
				calls[i]++
				res := &c.Result
				switch {
				case res.Cmd.Op != cmd.Op || res.Cmd.LBA != cmd.LBA:
					t.Fatalf("command %d: delivered op %v LBA %d, submitted op %v LBA %d",
						i, res.Cmd.Op, res.Cmd.LBA, cmd.Op, cmd.LBA)
				case res.Cmd.Queue != cpu || c.Delivery.SSD != 0:
					t.Fatalf("command %d: queue %d, drive %d; submitted on CPU %d to drive 0",
						i, res.Cmd.Queue, c.Delivery.SSD, cpu)
				case res.SubmittedAt != submitAt || c.DeliveredAt != r.eng.Now():
					t.Fatalf("command %d: submitted %v, delivered %v; want %v, %v",
						i, res.SubmittedAt, c.DeliveredAt, submitAt, r.eng.Now())
				case !managed && (c.Retries != 0 || c.TimedOut):
					t.Fatalf("command %d: %d retries, timed out %v with no timeout policy",
						i, c.Retries, c.TimedOut)
				case managed && (c.Retries > pol.MaxRetries || c.TimedOut && c.Status != nvme.StatusAborted):
					t.Fatalf("command %d: %d retries (max %d), timed out %v with status %v",
						i, c.Retries, pol.MaxRetries, c.TimedOut, c.Status)
				case polling && c.WakePenalty != 0:
					t.Fatalf("command %d: polled completion carries wake penalty %v", i, c.WakePenalty)
				}
			})
			r.eng.ScheduleAt(submitAt, func() { r.k.SubmitIOTo(cpu, 0, cmd, check) })
		}
		r.eng.RunUntil(sim.Time(200 * sim.Millisecond))

		delivered := 0
		for i, c := range calls {
			if c > 1 || (managed && c != 1) {
				t.Fatalf("command %d: receiver called %d times", i, c)
			}
			delivered += c
		}
		st, dropped := r.k.IOStats(), ssd.Stats().DroppedCmds
		if managed {
			if st.Timeouts != st.LateCompletions+dropped {
				t.Fatalf("%d deadlines fired, but %d late CQEs and %d drops answered them",
					st.Timeouts, st.LateCompletions, dropped)
			}
		} else if int64(delivered)+dropped != int64(n) {
			t.Fatalf("%d commands: %d delivered, %d dropped", n, delivered, dropped)
		}
		if r.k.inflight != 0 {
			t.Fatalf("inflight %d after the burst drained", r.k.inflight)
		}
		checkFreelists(t, r.k)
	})
}
