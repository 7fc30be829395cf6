package raid

import (
	"testing"

	"repro/internal/irq"
	"repro/internal/kernel"
	"repro/internal/nand"
	"repro/internal/nvme"
	"repro/internal/pcie"
	"repro/internal/sched"
	"repro/internal/sim"
)

func newRig(t *testing.T, ncpu, nssd int) (*sim.Engine, *kernel.Kernel) {
	t.Helper()
	eng := sim.NewEngine()
	sch := sched.New(eng, sched.Config{NumCPUs: ncpu, Seed: 9,
		Boot: sched.BootOptions{IdlePoll: true}})
	fab := pcie.NewFabric(eng, pcie.Options{NumSSDs: nssd})
	fw := nvme.DefaultFirmware()
	fw.Kind = nvme.FirmwareNoSMART
	var ssds []*nvme.Controller
	for i := 0; i < nssd; i++ {
		ssds = append(ssds, nvme.New(eng, nvme.Config{
			ID: i, Fabric: fab, FW: fw, Seed: 9, Geom: nand.TinyGeometry()}))
	}
	ic := irq.New(eng, sch, irq.Config{NumSSDs: nssd, NumCPUs: ncpu, Seed: 9})
	return eng, kernel.New(eng, kernel.Config{Sched: sch, IRQ: ic, SSDs: ssds, Seed: 9})
}

func TestStripedReadCompletes(t *testing.T) {
	eng, k := newRig(t, 2, 4)
	res := Run(eng, k, []ClientSpec{{
		Stripe: []int{0, 1, 2, 3}, CPU: 1, Runtime: 200 * sim.Millisecond, Seed: 1,
	}})[0]
	if res.Requests < 1000 {
		t.Fatalf("requests = %d", res.Requests)
	}
	if res.SubIOs != res.Requests*4 {
		t.Fatalf("subIOs = %d for %d requests ×4", res.SubIOs, res.Requests)
	}
	var stragglers int64
	for _, n := range res.StragglerSSD {
		stragglers += n
	}
	if stragglers != res.Requests {
		t.Fatalf("straggler records = %d, want %d", stragglers, res.Requests)
	}
}

func TestStripeLatencyIsMaxOfMembers(t *testing.T) {
	// A stripe over w SSDs must be slower on average than a single
	// sub-I/O (expectation of the max exceeds the mean), and its average
	// must be at least the single-SSD average.
	eng, k := newRig(t, 2, 8)
	rs := Run(eng, k, []ClientSpec{
		{Name: "w1", Stripe: []int{0}, CPU: 1, Runtime: 200 * sim.Millisecond, Seed: 1},
	})
	w1 := rs[0]

	eng2, k2 := newRig(t, 2, 8)
	rs2 := Run(eng2, k2, []ClientSpec{
		{Name: "w8", Stripe: []int{0, 1, 2, 3, 4, 5, 6, 7}, CPU: 1, Runtime: 200 * sim.Millisecond, Seed: 1},
	})
	w8 := rs2[0]

	if w8.Ladder.Avg <= w1.Ladder.Avg {
		t.Fatalf("w8 avg %.0f not above w1 avg %.0f (max of 8 draws)", w8.Ladder.Avg, w1.Ladder.Avg)
	}
}

func TestSlowMemberDominatesStripe(t *testing.T) {
	eng, k := newRig(t, 2, 4)
	// Make SSD 2 much slower.
	k.SSDs[2].Flash.Timing.ReadPage *= 3
	res := Run(eng, k, []ClientSpec{{
		Stripe: []int{0, 1, 2, 3}, CPU: 1, Runtime: 200 * sim.Millisecond, Seed: 1,
	}})[0]
	// The slow SSD must be the straggler almost always.
	if frac := float64(res.StragglerSSD[2]) / float64(res.Requests); frac < 0.95 {
		t.Fatalf("slow SSD straggled only %.0f%% of requests", frac*100)
	}
}

func TestTailAmplification(t *testing.T) {
	// The Section I claim, quantitatively: a per-SSD tail event at
	// quantile p appears in a width-w stripe at ≈ 1-(1-p)^w. With the
	// per-op lognormal jitter, the stripe's median must sit near the
	// member's high percentiles.
	eng, k := newRig(t, 3, 8)
	stripe := []int{0, 1, 2, 3, 4, 5, 6, 7}
	rs := Run(eng, k, []ClientSpec{
		{Name: "w8", Stripe: stripe, CPU: 1, Runtime: 300 * sim.Millisecond, Seed: 2},
		{Name: "w1", Stripe: []int{0}, CPU: 2, Runtime: 300 * sim.Millisecond, Seed: 3},
	})
	w8, w1 := rs[0], rs[1]
	// Median of max-of-8 ≈ the single's ~0.917 quantile (0.5^(1/8)).
	singleP92 := w1.Hist.Quantile(0.917)
	med8 := w8.Hist.Quantile(0.5)
	// Allow the stripe's extra submit/reap overhead (~8 sub-IO handling).
	if med8 < singleP92 {
		t.Fatalf("stripe median %d below member p91.7 %d; no amplification", med8, singleP92)
	}
}

func TestQD2KeepsTwoInFlight(t *testing.T) {
	eng, k := newRig(t, 2, 2)
	res := Run(eng, k, []ClientSpec{{
		Stripe: []int{0, 1}, CPU: 1, QD: 2, Runtime: 200 * sim.Millisecond, Seed: 1,
	}})[0]
	if res.Requests < 1000 {
		t.Fatalf("requests = %d", res.Requests)
	}
	// Device-level parallelism must beat QD1 throughput.
	eng2, k2 := newRig(t, 2, 2)
	res1 := Run(eng2, k2, []ClientSpec{{
		Stripe: []int{0, 1}, CPU: 1, QD: 1, Runtime: 200 * sim.Millisecond, Seed: 1,
	}})[0]
	if res.Requests <= res1.Requests {
		t.Fatalf("QD2 requests %d not above QD1 %d", res.Requests, res1.Requests)
	}
}

func TestEmptyStripePanics(t *testing.T) {
	eng, k := newRig(t, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("empty stripe accepted")
		}
	}()
	New(eng, k, ClientSpec{CPU: 1})
}

func TestStripeValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stripe []int
		ok     bool
	}{
		{"distinct", []int{0, 1, 2, 3}, true},
		{"single", []int{2}, true},
		{"duplicate", []int{0, 1, 1, 2}, false},
		{"duplicate-far", []int{3, 0, 1, 3}, false},
		{"negative", []int{0, -1}, false},
		{"past-end", []int{0, 4}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, k := newRig(t, 2, 4)
			defer func() {
				if got := recover(); (got == nil) != tc.ok {
					t.Fatalf("New with stripe %v: panic %v, want ok=%v", tc.stripe, got, tc.ok)
				}
			}()
			New(eng, k, ClientSpec{Stripe: tc.stripe, CPU: 1})
		})
	}
}

func TestDegradedReadReconstructsFromParity(t *testing.T) {
	eng, k := newRig(t, 2, 5)
	// Every read of member 2 fails permanently (no kernel retry: the rig
	// has no timeout policy, so statuses pass through).
	k.SSDs[2].SetTransientErrorRate(1.0)
	res := Run(eng, k, []ClientSpec{{
		Stripe: []int{0, 1, 2, 3}, CPU: 1, Runtime: 100 * sim.Millisecond,
		Tol: &Tolerance{ParitySSD: 4}, Seed: 1,
	}})[0]
	if res.Requests < 100 {
		t.Fatalf("requests = %d", res.Requests)
	}
	if res.FailedRequests != 0 {
		t.Fatalf("failed = %d with parity available", res.FailedRequests)
	}
	if res.DegradedReads != res.Requests {
		t.Fatalf("degraded = %d, want one per request (%d)", res.DegradedReads, res.Requests)
	}
	if res.SubIOErrors != res.Requests {
		t.Fatalf("sub-I/O errors = %d, want %d", res.SubIOErrors, res.Requests)
	}
}

func TestFailedSubIOWithoutParityFailsRequest(t *testing.T) {
	eng, k := newRig(t, 2, 4)
	k.SSDs[2].SetTransientErrorRate(1.0)
	res := Run(eng, k, []ClientSpec{{
		Stripe: []int{0, 1, 2, 3}, CPU: 1, Runtime: 100 * sim.Millisecond, Seed: 1,
	}})[0]
	if res.Requests != 0 {
		t.Fatalf("served %d requests with a dead member and no parity", res.Requests)
	}
	if res.FailedRequests < 100 {
		t.Fatalf("failed = %d", res.FailedRequests)
	}
	if res.Hist.Count() != 0 {
		t.Fatal("failed requests leaked into the latency histogram")
	}
}

func TestSecondFailureDefeatsParity(t *testing.T) {
	eng, k := newRig(t, 2, 5)
	// Two data members fail: one reconstruction slot is not enough.
	k.SSDs[1].SetTransientErrorRate(1.0)
	k.SSDs[2].SetTransientErrorRate(1.0)
	res := Run(eng, k, []ClientSpec{{
		Stripe: []int{0, 1, 2, 3}, CPU: 1, Runtime: 100 * sim.Millisecond,
		Tol: &Tolerance{ParitySSD: 4}, Seed: 1,
	}})[0]
	if res.Requests != 0 {
		t.Fatalf("served %d requests with two dead members", res.Requests)
	}
	if res.FailedRequests < 100 {
		t.Fatalf("failed = %d", res.FailedRequests)
	}
}

func TestHedgedReadCapsStraggler(t *testing.T) {
	eng, k := newRig(t, 2, 5)
	// Member 2 is pathologically slow (~60× NAND read time): without
	// hedging every request waits for it.
	k.SSDs[2].SetReadSlowdown(60)
	res := Run(eng, k, []ClientSpec{{
		Stripe: []int{0, 1, 2, 3}, CPU: 1, Runtime: 200 * sim.Millisecond,
		Tol: &Tolerance{ParitySSD: 4, HedgeQuantile: 0.99,
			HedgeMin: 100 * sim.Microsecond, MinSamples: 50},
		Seed: 1,
	}})[0]
	if res.HedgeWins < 100 {
		t.Fatalf("hedge wins = %d; the slow member should lose every race", res.HedgeWins)
	}
	// Baseline without hedging: the straggler sets the pace.
	eng2, k2 := newRig(t, 2, 5)
	k2.SSDs[2].SetReadSlowdown(60)
	base := Run(eng2, k2, []ClientSpec{{
		Stripe: []int{0, 1, 2, 3}, CPU: 1, Runtime: 200 * sim.Millisecond, Seed: 1,
	}})[0]
	if res.Ladder.Max >= base.Ladder.P[0] {
		t.Fatalf("hedged max %d not below unhedged p99 %d", res.Ladder.Max, base.Ladder.P[0])
	}
	if res.Requests <= base.Requests {
		t.Fatalf("hedging should raise throughput: %d vs %d", res.Requests, base.Requests)
	}
}

// newAdaptiveRig is newRig plus the adaptive control plane: a timeout
// policy (so commands are managed and observed) and a health tracker.
func newAdaptiveRig(t *testing.T, ncpu, nssd int, pol kernel.TimeoutPolicy) (*sim.Engine, *kernel.Kernel) {
	t.Helper()
	eng := sim.NewEngine()
	sch := sched.New(eng, sched.Config{NumCPUs: ncpu, Seed: 9,
		Boot: sched.BootOptions{IdlePoll: true}})
	fab := pcie.NewFabric(eng, pcie.Options{NumSSDs: nssd})
	fw := nvme.DefaultFirmware()
	fw.Kind = nvme.FirmwareNoSMART
	var ssds []*nvme.Controller
	for i := 0; i < nssd; i++ {
		ssds = append(ssds, nvme.New(eng, nvme.Config{
			ID: i, Fabric: fab, FW: fw, Seed: 9, Geom: nand.TinyGeometry()}))
	}
	ic := irq.New(eng, sch, irq.Config{NumSSDs: nssd, NumCPUs: ncpu, Seed: 9})
	return eng, kernel.New(eng, kernel.Config{Sched: sch, IRQ: ic, SSDs: ssds,
		Timeout: pol, Health: true, Seed: 9})
}

func TestAdaptiveHedgeLearnsSlowMemberBaseline(t *testing.T) {
	// Member 2 is steadily 20× slower — a slow bin, not a fault. A static
	// hedge floored below its baseline fires on nearly every request; the
	// adaptive hedge learns that member's own deadline and fires only on
	// its genuine tail.
	spec := func(adaptive bool) ClientSpec {
		return ClientSpec{
			Stripe: []int{0, 1, 2, 3}, CPU: 1, Runtime: 300 * sim.Millisecond,
			Tol: &Tolerance{ParitySSD: 4, HedgeQuantile: 0.99,
				HedgeMin: 100 * sim.Microsecond, MinSamples: 50, Adaptive: adaptive},
			Seed: 1,
		}
	}
	pol := kernel.DefaultTimeoutPolicy()

	engS, kS := newAdaptiveRig(t, 2, 5, pol)
	kS.SSDs[2].SetReadSlowdown(20)
	static := Run(engS, kS, []ClientSpec{spec(false)})[0]

	engA, kA := newAdaptiveRig(t, 2, 5, pol)
	kA.SSDs[2].SetReadSlowdown(20)
	adaptive := Run(engA, kA, []ClientSpec{spec(true)})[0]

	if static.HedgedReads < 1000 {
		t.Fatalf("static arm hedged only %d reads; floor should fire near-always", static.HedgedReads)
	}
	if adaptive.HedgedReads*2 >= static.HedgedReads {
		t.Fatalf("adaptive hedges = %d, static = %d; learning the slow baseline should cut hedges",
			adaptive.HedgedReads, static.HedgedReads)
	}
	// Adaptive trades the constant parity race for fewer hedges, so it
	// paces closer to the slow member's real baseline — it must still
	// make steady progress, not stall.
	if adaptive.Requests < 500 {
		t.Fatalf("adaptive served only %d requests", adaptive.Requests)
	}
	if adaptive.FailedRequests != 0 {
		t.Fatalf("adaptive failed %d requests", adaptive.FailedRequests)
	}
	// The tracker really did learn the slow member's distinct baseline.
	h := kA.Health()
	if d2, d0 := h.HedgeDeadline(2), h.HedgeDeadline(0); d2 == 0 || d0 == 0 || d2 <= d0 {
		t.Fatalf("deadlines: slow member %v, healthy member %v; want warm and ordered", d2, d0)
	}
}

func TestOverloadSuppressesHedges(t *testing.T) {
	pol := kernel.DefaultTimeoutPolicy()
	// A watermark below the client's steady fan-out: the kernel is
	// overloaded whenever requests are in flight, so every armed hedge
	// must be withheld (and counted) rather than fired.
	pol.OverloadWatermark = 1
	eng, k := newAdaptiveRig(t, 2, 5, pol)
	k.SSDs[2].SetReadSlowdown(20)
	res := Run(eng, k, []ClientSpec{{
		Stripe: []int{0, 1, 2, 3}, CPU: 1, QD: 4, Runtime: 200 * sim.Millisecond,
		Tol: &Tolerance{ParitySSD: 4, HedgeQuantile: 0.99,
			HedgeMin: 100 * sim.Microsecond, MinSamples: 50},
		Seed: 1,
	}})[0]
	if res.HedgesSuppressed == 0 {
		t.Fatal("no hedges suppressed under permanent overload")
	}
	if res.HedgedReads != 0 {
		t.Fatalf("hedged %d reads while overloaded; hedges are the first load to shed", res.HedgedReads)
	}
	if res.Requests < 1000 {
		t.Fatalf("requests = %d; suppression must not stall the workload", res.Requests)
	}
}

func TestParityInStripePanics(t *testing.T) {
	eng, k := newRig(t, 2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("parity SSD inside the data stripe accepted")
		}
	}()
	New(eng, k, ClientSpec{Stripe: []int{0, 1}, CPU: 1, Tol: &Tolerance{ParitySSD: 1}})
}

func TestParityOutOfRangePanics(t *testing.T) {
	eng, k := newRig(t, 2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range parity SSD accepted")
		}
	}()
	New(eng, k, ClientSpec{Stripe: []int{0, 1}, CPU: 1, Tol: &Tolerance{ParitySSD: 9}})
}
