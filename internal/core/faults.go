// Fault-injection experiments: the degraded-mode ablation (clean vs
// faulted vs faulted+tolerant) and the drive drop-out recovery series.
// The paper's configurations chase the tail of healthy devices; these
// runners ask the complementary question — what the client-visible ladder
// looks like when devices misbehave, and how much of the damage the
// host-side tolerance machinery (kernel timeouts + RAID degraded reads +
// hedging) buys back.

package core

import (
	"fmt"
	"io"

	"repro/internal/fault"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/stats"
)

// DemoFaultPlan builds the representative misbehaving-fleet schedule the
// ablation imposes on the data stripe: one firmware-stalling controller,
// one slow-binned device, one with transient command errors, and one with
// periodic GC storms. Deliberately no drive drop-out: an offline device
// never completes commands, so an untolerant host would simply hang — the
// drop-out story needs tolerance and lives in RunRecoverySeries.
func DemoFaultPlan(horizon sim.Duration) fault.Plan {
	h := sim.Time(0).Add(horizon)
	return fault.Plan{Profiles: []fault.Profile{
		{SSD: 0, FirmwareStalls: fault.PeriodicStalls(
			sim.Time(0).Add(horizon/4), horizon/2, 20*sim.Millisecond, h)},
		{SSD: 1, ReadSlowdown: 3},
		{SSD: 2, TransientRate: 0.002},
		{SSD: 3, GCStorms: []fault.Window{{At: sim.Time(0).Add(horizon / 3), For: horizon / 10}},
			StormFactor: 8},
	}}
}

// RunFaultAblation measures the client-visible striped-read ladder in
// three arms: a clean fleet, the same fleet under DemoFaultPlan with no
// host tolerance (errors fail requests, stalls are waited out), and the
// faulted fleet with the full tolerance stack (kernel timeouts + retry,
// RAID degraded reads, hedged reads at the observed p99). The headline:
// tolerant worst-case latency sits far below the untolerant faulted
// maximum, because the hedge routes around a stalled controller instead
// of waiting for it. The three arms are independent boots and fan out in
// parallel.
func RunFaultAblation(o ExpOptions) []RAIDRun {
	g := grid{stock: true, arms: []arm{
		{name: "clean", cfg: IRQAffinity(), load: stripe{}},
		{name: "faulted", cfg: IRQAffinity(), plan: DemoFaultPlan, load: stripe{}},
		{name: "tolerant", cfg: FaultTolerance(), plan: DemoFaultPlan,
			load: stripe{tol: raid.DefaultTolerance(FaultStripeWidth)}},
	}}
	return each(g.run(o), func(r armRun) RAIDRun { return r.raid })
}

// RecoveryResult is the drop-out/recovery time series: per-window maximum
// striped-request latency across a run in which one stripe member goes
// offline and later returns.
type RecoveryResult struct {
	// RAIDRun holds the whole run's client result and tolerance counters.
	RAIDRun
	// Buckets holds the per-window latency summaries.
	Buckets []stats.TimeBucket
	// DropAt/RecoverAt are the imposed outage bounds.
	DropAt, RecoverAt sim.Time
}

// RunRecoverySeries drops stripe member 0 a quarter of the way into the
// run and recovers it at three quarters, under the full tolerance stack.
// While the drive is gone its sub-I/Os never complete; the hedge fires at
// the observed p99 and the parity reconstruction serves every request, so
// the series shows a bounded latency plateau during the outage rather
// than a hang — and a return to baseline after recovery.
func RunRecoverySeries(o ExpOptions) RecoveryResult {
	o = stockOpts(o)
	dropAt := sim.Time(0).Add(o.Runtime / 4)
	recoverAt := sim.Time(0).Add(3 * o.Runtime / 4)
	run := runArm(o, arm{
		name: "recovery",
		cfg:  FaultTolerance(),
		plan: func(sim.Duration) fault.Plan {
			return fault.Plan{Profiles: []fault.Profile{
				{SSD: 0, DropAt: dropAt, RecoverAt: recoverAt},
			}}
		},
		load: stripe{client: raid.ClientSpec{LatLog: true}, tol: raid.DefaultTolerance(FaultStripeWidth)},
	})
	return RecoveryResult{
		RAIDRun:   run.raid,
		Buckets:   stats.Bucketize(run.raid.Log.Samples(), int64(run.end), 48, 500_000),
		DropAt:    dropAt,
		RecoverAt: recoverAt,
	}
}

// WriteFaultAblation renders the three-arm comparison: the ladders side
// by side, then the tolerance counters.
func WriteFaultAblation(w io.Writer, runs []RAIDRun) {
	writeSideBySide(w, 10, 12, "lat(µs)", raidNames(runs), raidRungs(runs))
	fmt.Fprintln(w)
	writeSideBySide(w, 16, 10, "counter", raidNames(runs), counterRows(runs, []counter[RAIDRun]{
		{"requests", func(r RAIDRun) int64 { return r.Requests }},
		{"failed", func(r RAIDRun) int64 { return r.FailedRequests }},
		{"sub-I/O errors", func(r RAIDRun) int64 { return r.SubIOErrors }},
		{"degraded reads", func(r RAIDRun) int64 { return r.DegradedReads }},
		{"hedged reads", func(r RAIDRun) int64 { return r.HedgedReads }},
		{"hedge wins", func(r RAIDRun) int64 { return r.HedgeWins }},
		{"kern timeouts", func(r RAIDRun) int64 { return r.IOStats.Timeouts }},
		{"kern retries", func(r RAIDRun) int64 { return r.IOStats.Retries }},
		{"kern exhausted", func(r RAIDRun) int64 { return r.IOStats.Exhausted }},
	}))
}

// WriteRecoverySeries renders the outage time series: max latency per
// window with the imposed drop/recover instants marked.
func WriteRecoverySeries(w io.Writer, r RecoveryResult) {
	fmt.Fprintf(w, "drive drop at t=%.3fs, recovery at t=%.3fs\n",
		float64(r.DropAt)/1e9, float64(r.RecoverAt)/1e9)
	fmt.Fprintf(w, "requests=%d failed=%d degraded=%d hedged=%d hedge-wins=%d\n",
		r.Requests, r.FailedRequests, r.DegradedReads, r.HedgedReads, r.HedgeWins)
	fmt.Fprintf(w, "kernel: timeouts=%d retries=%d exhausted=%d late=%d\n",
		r.IOStats.Timeouts, r.IOStats.Retries, r.IOStats.Exhausted, r.IOStats.LateCompletions)
	fmt.Fprintf(w, "\n%12s %8s %12s %12s\n", "window", "reqs", "mean(µs)", "max(µs)")
	for _, b := range r.Buckets {
		marker := ""
		if end := b.Start + bucketWidth(r.Buckets); int64(r.DropAt) >= b.Start && int64(r.DropAt) < end {
			marker = "  <- drop"
		} else if int64(r.RecoverAt) >= b.Start && int64(r.RecoverAt) < end {
			marker = "  <- recover"
		}
		fmt.Fprintf(w, "%11.3fs %8d %12.1f %12.1f%s\n",
			float64(b.Start)/1e9, b.Count, b.Mean()/1e3, float64(b.Max)/1e3, marker)
	}
	fmt.Fprintf(w, "\nfailure trace:\n%s", r.Trace)
}

func bucketWidth(buckets []stats.TimeBucket) int64 {
	if len(buckets) < 2 {
		return 1 << 62
	}
	return buckets[1].Start - buckets[0].Start
}
