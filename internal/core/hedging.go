// Hedging-policy experiments: the three-arm adaptive-tolerance ablation
// (static hedge quantile vs per-drive adaptive deadlines vs adaptive +
// retry budgets/overload shedding) over a fleet that mixes the failure
// modes the health tracker is built to tell apart — a slow-binned
// member, a mid-run drop-out with rebuild, and GC storms on an otherwise
// healthy device. The question the ablation answers: does learning each
// drive's own latency profile beat one stripe-wide hedge delay, and does
// the back-pressure half (budgets + watermark) hold the win under retry
// pressure.

package core

import (
	"fmt"
	"io"

	"repro/internal/fault"
	"repro/internal/raid"
	"repro/internal/sim"
)

// DemoHedgePlan builds the hedging-ablation fault schedule on the
// FaultStripeWidth data stripe. The three profiles are chosen so that a
// single stripe-wide hedge delay cannot be right for all of them at
// once:
//
//   - member 0 drops out a quarter of the way in and is replaced at the
//     midpoint (the rebuild target): the right hedge delay during the
//     outage is "as soon as possible";
//   - member 3 is a slow bin (×20): its baseline is the drive's normal —
//     hedging it at the healthy members' tail burns a parity read on
//     nearly every request;
//   - member 5 suffers periodic GC storms (×30): a healthy baseline that
//     transiently needs the fast hedge the slow bin must not get;
//   - the parity member itself storms (×8) once inside the outage and
//     once after it: the hedge path is not free, so every speculative
//     parity read a policy fires while parity is storming deepens the
//     convoy behind it.
//
// A static client learns one quantile dominated by the slow bin and
// applies it everywhere — too slow for the outage and the storms, while
// still hedging the slow bin's own ordinary tail. The per-drive tracker
// separates the cases.
func DemoHedgePlan(horizon sim.Duration) fault.Plan {
	return fault.Plan{Profiles: []fault.Profile{
		{SSD: 0, DropAt: sim.Time(0).Add(horizon / 4), RecoverAt: sim.Time(0).Add(horizon / 2)},
		{SSD: 3, ReadSlowdown: 20},
		{SSD: 5, GCStorms: []fault.Window{
			{At: sim.Time(0).Add(5 * horizon / 8), For: horizon / 16},
			{At: sim.Time(0).Add(13 * horizon / 16), For: horizon / 16},
		}, StormFactor: 30},
		{SSD: FaultStripeWidth, GCStorms: []fault.Window{
			{At: sim.Time(0).Add(5 * horizon / 16), For: horizon / 16},
			{At: sim.Time(0).Add(11 * horizon / 16), For: horizon / 16},
		}, StormFactor: 8},
	}}
}

// hedgeArm is one arm of the hedging ablation: QD-4 full-stripe reads
// under DemoHedgePlan with parity tolerance armed, racing the rebuild
// stream from the replacement instant — the same competing-rebuild
// setting as the write ablation, so the arms differ only in hedging
// policy (cfg and adaptive).
func hedgeArm(name string, cfg Config, adaptive bool) arm {
	tol := raid.DefaultTolerance(FaultStripeWidth)
	tol.Adaptive = adaptive
	return arm{name: name, cfg: cfg, plan: DemoHedgePlan,
		load: stripe{client: raid.ClientSpec{QD: 4}, rebuild: true, tol: tol}}
}

// hedgeGrid is the hedging ablation's three arms. A seed sweep reruns
// the adaptive+budgets arm, the full control plane, as "hedge-ladder".
func hedgeGrid() grid {
	return grid{stock: true, rerun: "hedge-ladder", arms: []arm{
		hedgeArm("static", FaultTolerance(), false),
		hedgeArm("adaptive", AdaptiveTolerance(), true),
		hedgeArm("adaptive+budgets", AdaptiveBudgets(), true),
	}}
}

// RunHedgingAblation measures the client-visible striped-read ladder
// under DemoHedgePlan in three arms:
//
//   - static: the stock tolerance stack — one hedge delay from the
//     client-wide p99, which the slow bin drags up for every drive;
//   - adaptive: the same kernel plus the health tracker, with hedge
//     deadlines per straggling drive (raid.Tolerance.Adaptive);
//   - adaptive+budgets: adaptive plus per-drive retry budgets and the
//     overload watermark — the full control plane.
//
// The headline: the adaptive arms cut the upper rungs (the outage and
// the storms are hedged at the floor instead of the slow bin's tail)
// while firing fewer hedges overall (the slow bin is hedged at its own
// baseline, not raced constantly). The three arms are independent boots
// fanned out in parallel.
func RunHedgingAblation(o ExpOptions) []RAIDRun {
	return each(hedgeGrid().run(o), func(r armRun) RAIDRun { return r.raid })
}

// WriteHedgingAblation renders the three-arm comparison: the ladders
// side by side, the hedging and kernel counters, then the end-of-run
// health-tracker view of the fleet for the arms that ran one.
func WriteHedgingAblation(w io.Writer, runs []RAIDRun) {
	writeSideBySide(w, 10, 16, "lat(µs)", raidNames(runs), raidRungs(runs))
	fmt.Fprintln(w)
	writeSideBySide(w, 18, 16, "counter", raidNames(runs), counterRows(runs, []counter[RAIDRun]{
		{"requests", func(r RAIDRun) int64 { return r.Requests }},
		{"failed", func(r RAIDRun) int64 { return r.FailedRequests }},
		{"sub-I/O errors", func(r RAIDRun) int64 { return r.SubIOErrors }},
		{"degraded reads", func(r RAIDRun) int64 { return r.DegradedReads }},
		{"hedged reads", func(r RAIDRun) int64 { return r.HedgedReads }},
		{"hedge wins", func(r RAIDRun) int64 { return r.HedgeWins }},
		{"hedges suppressed", func(r RAIDRun) int64 { return r.HedgesSuppressed }},
		{"late sub-I/Os", func(r RAIDRun) int64 { return r.LateSubIOs }},
		{"kern timeouts", func(r RAIDRun) int64 { return r.IOStats.Timeouts }},
		{"kern retries", func(r RAIDRun) int64 { return r.IOStats.Retries }},
		{"kern exhausted", func(r RAIDRun) int64 { return r.IOStats.Exhausted }},
		{"budget exhausted", func(r RAIDRun) int64 { return r.IOStats.RetryBudgetExhausted }},
		{"shed to reconst", func(r RAIDRun) int64 { return r.IOStats.ShedToReconstruct }},
		{"overload entries", func(r RAIDRun) int64 { return r.IOStats.OverloadEntered }},
	}))

	for _, r := range runs {
		if r.Drives == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s drive health (end of run):\n", r.Name)
		fmt.Fprintf(w, "%4s %10s %12s %8s %9s %7s %9s %8s %7s\n",
			"ssd", "srtt(µs)", "deadline(µs)", "susp(‰)", "samples",
			"spikes", "timeouts", "retries", "errors")
		for _, d := range r.Drives {
			fmt.Fprintf(w, "%4d %10.1f %12.1f %8d %9d %7d %9d %8d %7d\n",
				d.SSD, float64(d.SRTT)/1e3, float64(d.Deadline)/1e3,
				d.Suspicion, d.Samples, d.Spikes, d.Timeouts, d.Retries, d.Errors)
		}
	}
}
