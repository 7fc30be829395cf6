package raid

import (
	"fmt"
	"testing"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// TestRequestCarrierLifetime pins the read path's counters on workloads
// where request carriers are still owed callbacks after the client has
// reaped them: a slow member loses hedge races, so its stragglers land
// after their request completed (and, at QD4, after its carrier could
// have been reissued). A carrier recycled too early would route a
// straggler into an unrelated request and move these counts. The
// expected fingerprints were captured before read requests were pooled.
func TestRequestCarrierLifetime(t *testing.T) {
	tol := func() *Tolerance {
		return &Tolerance{ParitySSD: 4, HedgeQuantile: 0.99,
			HedgeMin: 100 * sim.Microsecond, MinSamples: 50}
	}
	for _, tc := range []struct {
		name string
		rig  func(t *testing.T) (*sim.Engine, *kernel.Kernel)
		want string
	}{
		{
			// Managed commands: every sub-I/O runs under the timeout
			// policy, so the kernel's attempt carriers recycle too.
			name: "hedge-managed",
			rig: func(t *testing.T) (*sim.Engine, *kernel.Kernel) {
				eng, k := newAdaptiveRig(t, 2, 5, kernel.DefaultTimeoutPolicy())
				k.SSDs[2].SetReadSlowdown(60)
				return eng, k
			},
			want: "req=2617 sub=13054 late=2586 hedged=2617 wins=2617 degraded=0 failed=0 errs=0 strag=map[4:2617] p=[161792 168960 192512 192512 192512] max=193510 n=2617 avg=142705.2",
		},
		{
			// Raw commands with two flaky members: degraded reads claim the
			// parity slot, double failures fail requests, and hedges
			// still race the slow member.
			name: "hedge-degraded-raw",
			rig: func(t *testing.T) (*sim.Engine, *kernel.Kernel) {
				eng, k := newRig(t, 2, 5)
				k.SSDs[2].SetReadSlowdown(60)
				k.SSDs[1].SetTransientErrorRate(0.1)
				k.SSDs[3].SetTransientErrorRate(0.1)
				return eng, k
			},
			want: "req=1095 sub=5544 late=877 hedged=878 wins=878 degraded=231 failed=14 errs=245 strag=map[2:217 4:878] p=[1269760 1449984 1474560 1474560 1474560] max=1479620 n=1095 avg=342403.8",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, k := tc.rig(t)
			res := Run(eng, k, []ClientSpec{{
				Stripe: []int{0, 1, 2, 3}, CPU: 1, QD: 4, Runtime: 100 * sim.Millisecond,
				Tol: tol(), Seed: 1,
			}})[0]
			if res.HedgeWins == 0 || res.LateSubIOs == 0 {
				t.Fatalf("hedge wins %d, late sub-I/Os %d: the workload must leave stragglers behind",
					res.HedgeWins, res.LateSubIOs)
			}
			if got := fingerprint(res); got != tc.want {
				t.Fatalf("fingerprint changed:\n got  %s\n want %s", got, tc.want)
			}
		})
	}
}

// fingerprint renders a read client's counters and latency ladder.
func fingerprint(res *Result) string {
	return fmt.Sprintf("req=%d sub=%d late=%d hedged=%d wins=%d degraded=%d failed=%d errs=%d strag=%v p=%v max=%d n=%d avg=%.1f",
		res.Requests, res.SubIOs, res.LateSubIOs, res.HedgedReads, res.HedgeWins,
		res.DegradedReads, res.FailedRequests, res.SubIOErrors, res.StragglerSSD,
		res.Ladder.P, res.Ladder.Max, res.Ladder.N, res.Ladder.Avg)
}

// TestMootHedgeFiresNoEvent: on a healthy 8+1 array every request
// finishes long before a 1 s hedge deadline, so arming that deadline
// must cost no engine event at all. The run with hedging armed and the
// run with hedging off take the same steps and give the same results,
// also after the clock has passed every deadline the first run armed.
func TestMootHedgeFiresNoEvent(t *testing.T) {
	run := func(q float64) (uint64, string) {
		eng, k := newRig(t, 2, 9)
		res := Run(eng, k, []ClientSpec{{
			Stripe: []int{0, 1, 2, 3, 4, 5, 6, 7}, CPU: 1, QD: 4, Runtime: 100 * sim.Millisecond,
			Tol:  &Tolerance{ParitySSD: 8, HedgeQuantile: q, HedgeMin: sim.Second, MinSamples: 100},
			Seed: 1,
		}})[0]
		if res.HedgedReads != 0 || res.Requests < 1000 {
			t.Fatalf("hedge quantile %v: %d requests, %d hedged; want many, none hedged",
				q, res.Requests, res.HedgedReads)
		}
		eng.RunUntil(eng.Now().Add(2 * sim.Second))
		return eng.Steps(), fingerprint(res)
	}
	armedSteps, armed := run(0.99)
	offSteps, off := run(0)
	if armed != off {
		t.Fatalf("an armed hedge that never fires changed the results:\n armed %s\n off   %s", armed, off)
	}
	if armedSteps != offSteps {
		t.Fatalf("armed-but-moot hedging took %d engine steps, hedging off %d: moot deadlines fired",
			armedSteps, offSteps)
	}
}

// TestStripedReadSteadyStateAllocs: a QD4 8+1 client with hedging on a
// healthy fleet, under the kernel's timeout policy, allocates nothing per
// request once its carrier freelist is warm.
func TestStripedReadSteadyStateAllocs(t *testing.T) {
	eng, k := newAdaptiveRig(t, 2, 9, kernel.DefaultTimeoutPolicy())
	c := New(eng, k, ClientSpec{
		Stripe: []int{0, 1, 2, 3, 4, 5, 6, 7}, CPU: 1, QD: 4, Runtime: 10 * sim.Second,
		// An aggressive hedge, so the windows also recycle carriers
		// through the hedge deadline and the parity read.
		Tol: &Tolerance{ParitySSD: 8, HedgeQuantile: 0.5,
			HedgeMin: 20 * sim.Microsecond, MinSamples: 50},
		Seed: 1,
	})
	c.Start(nil)
	eng.RunUntil(eng.Now().Add(200 * sim.Millisecond))
	before := c.res.Requests
	const windows = 20
	avg := testing.AllocsPerRun(windows, func() {
		eng.RunUntil(eng.Now().Add(5 * sim.Millisecond))
	})
	reqs := c.res.Requests - before
	if reqs < 1000 || c.res.HedgedReads == 0 {
		t.Fatalf("requests %d, hedged %d: the measured windows must carry hedged reads",
			reqs, c.res.HedgedReads)
	}
	if avg > 0 {
		t.Fatalf("%.0f allocs per 5ms window of ~%d requests, want 0", avg, reqs/(windows+1))
	}
	checkFreeReqs(t, c)
}

// checkFreeReqs: every carrier on the freelist is idle — nothing still
// owes it a callback, its hedge deadline is disarmed — and none is
// listed twice.
func checkFreeReqs(t *testing.T, c *Client) {
	t.Helper()
	seen := map[*request]bool{}
	for _, r := range c.freeReqs {
		if r.holds != 0 || r.hedge.Armed() || seen[r] {
			t.Fatalf("freelist carrier with holds %d, hedge armed %v (duplicate %v)",
				r.holds, r.hedge.Armed(), seen[r])
		}
		seen[r] = true
	}
}

// FuzzReadCarrier runs a striped 4+1 read client through a random mix
// of a slow member, transient error rates on a data member and the
// parity member, hedge settings and, when timeouts is set, the kernel's
// timeout policy and health tracker. The client issues for 20 ms at QD
// 1–8; once it has drained and its stragglers have landed:
//   - every issued request was reaped exactly once;
//   - every carrier on the freelist is idle (no holds, hedge deadline
//     disarmed) and listed once;
//   - no hedge deadline fired on a settled request (hedgeFire panics).
//
// The committed corpus under testdata/fuzz makes plain `go test` replay
// it; the nightly workflow fuzzes it for new inputs.
func FuzzReadCarrier(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, qd, slow, factor, errData, errParity, quantile uint8,
		hedgeMinUS uint16, timeouts bool) {
		var eng *sim.Engine
		var k *kernel.Kernel
		if timeouts {
			eng, k = newAdaptiveRig(t, 2, 5, kernel.DefaultTimeoutPolicy())
		} else {
			eng, k = newRig(t, 2, 5)
		}
		if factor > 1 {
			k.SSDs[int(slow)%5].SetReadSlowdown(float64(factor % 64))
		}
		k.SSDs[int(slow+1)%4].SetTransientErrorRate(float64(errData) / 1024)
		k.SSDs[4].SetTransientErrorRate(float64(errParity) / 1024)
		tol := &Tolerance{ParitySSD: 4, HedgeMin: sim.Duration(hedgeMinUS) * sim.Microsecond, MinSamples: 50}
		if quantile > 0 {
			tol.HedgeQuantile = 0.5 + 0.49*float64(quantile)/255
		}
		const runtime = 20 * sim.Millisecond
		c := New(eng, k, ClientSpec{
			Stripe: []int{0, 1, 2, 3}, CPU: 1, QD: 1 + int(qd%8), Runtime: runtime,
			Tol: tol, Seed: seed,
		})

		// Count issues and reaps through the client's bound thread
		// bursts: a request is its carrier at its issue instant, since a
		// carrier is reissued only after its reap and a later instant.
		type issue struct {
			r  *request
			at sim.Time
		}
		issued := 0
		reaped := map[issue]bool{}
		issueWindow, reapAll := c.issueWindowFn, c.reapAllFn
		c.issueWindowFn = func() {
			before := c.inflight
			issueWindow()
			issued += c.inflight - before
		}
		c.reapAllFn = func() {
			for _, cr := range c.completed {
				r := cr.(*request)
				key := issue{r, r.issuedAt}
				if reaped[key] {
					t.Fatalf("request issued at %v reaped twice", r.issuedAt)
				}
				reaped[key] = true
			}
			reapAll()
		}
		drained := false
		c.Start(func(*Result) { drained = true })
		eng.RunUntil(sim.Time(runtime + sim.Second))

		if !drained || c.inflight != 0 {
			t.Fatalf("client drained %v with %d requests in flight", drained, c.inflight)
		}
		if len(reaped) != issued {
			t.Fatalf("%d requests issued, %d reaped", issued, len(reaped))
		}
		if got := c.res.Requests + c.res.FailedRequests; got != int64(issued) {
			t.Fatalf("%d requests issued, %d served or failed", issued, got)
		}
		checkFreeReqs(t, c)
	})
}
