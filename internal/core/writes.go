// Write-path fault experiments: the four-arm degraded-write ablation
// (clean RMW, degraded, degraded + rebuild, degraded + rebuild +
// tolerance), whose tolerant arm is the write-tail seed-sweep unit. The
// paper's tail events (SMART windows, GC storms) hit writes hardest;
// these runners measure what the RAID small-write penalty and a member
// outage do to the client-visible write ladder, and how much the
// write-side tolerance stack (kernel timeouts + suspicion routing +
// hedged parity writes) buys back while a rebuild stream competes for
// the same devices.

package core

import (
	"fmt"
	"io"

	"repro/internal/fault"
	"repro/internal/raid"
	"repro/internal/sim"
)

// writeRebuildThrottle is the ablation's rebuild-rate knob: the pause
// between consecutive rebuilt stripes. raid.RebuildSpec.Throttle exposes
// it to library users; examples/chaos shows the trade-off.
const writeRebuildThrottle = 100 * sim.Microsecond

// DemoWritePlan builds the write-ablation fault schedule on the
// FaultStripeWidth data stripe: member 0 is pulled a quarter of the way
// in and replaced at the midpoint (the rebuild target), member 1's
// firmware stalls during the rebuild phase, member 2 throws transient
// command errors, and member 3 programs slowly. The stall window sits
// after the outage on purpose: while member 0 is gone, every
// parity-logged write needs all surviving peers, and overlapping a peer
// stall with the outage would make even a perfectly-tolerant host wait
// out the kernel timeout ladder.
func DemoWritePlan(horizon sim.Duration) fault.Plan {
	h := sim.Time(0).Add(horizon)
	return fault.Plan{Profiles: []fault.Profile{
		{SSD: 0, DropAt: sim.Time(0).Add(horizon / 4), RecoverAt: sim.Time(0).Add(horizon / 2)},
		{SSD: 1, FirmwareStalls: fault.PeriodicStalls(
			sim.Time(0).Add(5*horizon/8), horizon/2, 20*sim.Millisecond, h)},
		{SSD: 2, TransientRate: 0.002},
		{SSD: 3, WriteSlowdown: 4},
	}}
}

// writeRebuildSpec reconstructs member 0 from its recovery instant, one
// stripe per writeRebuildThrottle plus service time, sized to keep the
// stream busy for the rest of the run.
func writeRebuildSpec(o ExpOptions, cpu int) raid.RebuildSpec {
	survivors := make([]int, 0, FaultStripeWidth-1)
	for i := 1; i < FaultStripeWidth; i++ {
		survivors = append(survivors, i)
	}
	return raid.RebuildSpec{
		Survivors: survivors, Parity: FaultStripeWidth, Target: 0,
		CPU:      cpu,
		StartAt:  sim.Time(0).Add(o.Runtime / 2),
		Stripes:  int64(o.Runtime / (400 * sim.Microsecond)),
		Throttle: writeRebuildThrottle,
	}
}

// writeClient is the foreground workload every write arm shares: RMW
// small writes against the FaultStripeWidth data stripe and its parity
// member.
var writeClient = raid.ClientSpec{Workload: raid.WorkloadWrite, Parity: FaultStripeWidth}

// writeGrid is the write ablation's four arms. A seed sweep reruns the
// tolerant arm as "write-ladder".
func writeGrid() grid {
	return grid{stock: true, rerun: "write-ladder", arms: []arm{
		{name: "clean", cfg: IRQAffinity(), load: stripe{client: writeClient}},
		{name: "degraded", cfg: FaultTolerance(), plan: DemoWritePlan, load: stripe{client: writeClient}},
		{name: "rebuild", cfg: FaultTolerance(), plan: DemoWritePlan, load: stripe{client: writeClient, rebuild: true}},
		{name: "tolerant", cfg: FaultTolerance(), plan: DemoWritePlan, load: stripe{client: writeClient,
			rebuild: true, tol: raid.DefaultTolerance(FaultStripeWidth)}},
	}}
}

// RunWriteAblation measures the client-visible RMW write ladder in four
// arms:
//
//   - clean: a healthy fleet, pure read-modify-write;
//   - degraded: DemoWritePlan (member pulled, then replaced) with kernel
//     timeouts armed but no RAID-level tolerance — errors fail requests
//     and every command to the dead member rides the timeout ladder;
//   - rebuild: the same plus the rebuild stream competing with
//     foreground writes from the replacement instant;
//   - tolerant: the same plus the full write tolerance stack — suspicion
//     routing, parity-only logging, hedged parity writes.
//
// The headline mirrors the read ablation: the tolerant arm's maximum
// stays hedge-bounded (sub-millisecond-class) while the untolerant
// degraded arms pay multi-millisecond timeouts.
//
// The four arms are independent boots fanned out in parallel. Every
// faulted arm arms kernel timeouts: an offline device never completes
// commands, so a host with no timeout at all would simply hang —
// "untolerant" here means no RAID-level tolerance.
func RunWriteAblation(o ExpOptions) []RAIDRun {
	return each(writeGrid().run(o), func(r armRun) RAIDRun { return r.raid })
}

// WriteWriteAblation renders the four-arm comparison: ladders side by
// side, then the write-path and kernel counters, then the rebuild
// streams' progress.
func WriteWriteAblation(w io.Writer, runs []RAIDRun) {
	writeSideBySide(w, 10, 12, "lat(µs)", raidNames(runs), raidRungs(runs))
	fmt.Fprintln(w)
	writeSideBySide(w, 18, 10, "counter", raidNames(runs), counterRows(runs, []counter[RAIDRun]{
		{"requests", func(r RAIDRun) int64 { return r.Requests }},
		{"failed", func(r RAIDRun) int64 { return r.FailedRequests }},
		{"sub-I/O errors", func(r RAIDRun) int64 { return r.SubIOErrors }},
		{"rmw reads", func(r RAIDRun) int64 { return r.RMWReads }},
		{"data writes", func(r RAIDRun) int64 { return r.DataWrites }},
		{"parity writes", func(r RAIDRun) int64 { return r.ParityWrites }},
		{"degraded writes", func(r RAIDRun) int64 { return r.DegradedWrites }},
		{"reconstruct", func(r RAIDRun) int64 { return r.ReconstructWrites }},
		{"parity-log", func(r RAIDRun) int64 { return r.ParityLogWrites }},
		{"unprotected", func(r RAIDRun) int64 { return r.UnprotectedWrites }},
		{"hedged writes", func(r RAIDRun) int64 { return r.HedgedWrites }},
		{"hedge wins", func(r RAIDRun) int64 { return r.WriteHedgeWins }},
		{"dup completions", func(r RAIDRun) int64 { return r.DupCompletions }},
		{"suspicions", func(r RAIDRun) int64 { return r.Suspicions }},
		{"probes", func(r RAIDRun) int64 { return r.Probes }},
		{"kern timeouts", func(r RAIDRun) int64 { return r.IOStats.Timeouts }},
		{"kern wr timeouts", func(r RAIDRun) int64 { return r.IOStats.WriteTimeouts }},
		{"kern retries", func(r RAIDRun) int64 { return r.IOStats.Retries }},
		{"kern exhausted", func(r RAIDRun) int64 { return r.IOStats.Exhausted }},
	}))

	for _, r := range runs {
		if r.Rebuild == nil {
			continue
		}
		rb := r.Rebuild
		fmt.Fprintf(w, "\n%s rebuild: %d/%d stripes (failed %d) reads=%d writes=%d done=%v",
			r.Name, rb.StripesRebuilt, rb.Spec.Stripes, rb.StripesFailed,
			rb.Reads, rb.Writes, rb.Done)
		if rb.Done {
			fmt.Fprintf(w, " elapsed=%.1fms", float64(rb.FinishedAt.Sub(rb.StartedAt))/1e6)
		}
		fmt.Fprintln(w)
	}
}
