package fio

import (
	"fmt"
	"strings"

	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Phase indexes one segment of an I/O's life, in path order. The
// decomposition mirrors what blktrace + driver tracepoints give on the
// real system and is what the anatomy example prints.
type Phase int

// The phases of a read.
const (
	// PhaseSubmit: io_submit syscall to the controller having fetched and
	// decoded the SQE (host submit path + fabric downstream).
	PhaseSubmit Phase = iota
	// PhaseHousekeeping: stalled behind a firmware SMART window.
	PhaseHousekeeping
	// PhaseMedia: NAND array time.
	PhaseMedia
	// PhaseReturn: data/CQE upstream through the fabric.
	PhaseReturn
	// PhaseInterrupt: CQE post to the host softirq having run (hardirq +
	// softirq, including any remote-CPU IPI detour).
	PhaseInterrupt
	// PhaseWakeup: softirq to the thread having reaped the completion
	// (scheduler wakeup, context switch, reap burst).
	PhaseWakeup
	numPhases
)

// PhaseLabels name the phases in order.
var PhaseLabels = []string{
	"submit+fetch", "housekeeping", "media", "return", "interrupt", "wakeup+reap",
}

func (p Phase) String() string { return PhaseLabels[p] }

// PhaseReport accumulates per-phase means over a job's I/Os.
type PhaseReport struct {
	w [numPhases]stats.Welford
}

// add decomposes one completion (reaped at reapAt) into phases.
func (r *PhaseReport) add(c *kernel.Completion, reapAt sim.Time) {
	res := &c.Result
	if res.MediaStartAt == 0 || res.MediaDoneAt == 0 {
		return // non-media command; no meaningful decomposition
	}
	housekeeping := res.MediaStartAt.Sub(res.FetchedAt)
	r.w[PhaseSubmit].Add(float64(res.FetchedAt.Sub(res.SubmittedAt)))
	r.w[PhaseHousekeeping].Add(float64(housekeeping))
	r.w[PhaseMedia].Add(float64(res.MediaDoneAt.Sub(res.MediaStartAt)))
	r.w[PhaseReturn].Add(float64(res.CompletedAt.Sub(res.MediaDoneAt)))
	r.w[PhaseInterrupt].Add(float64(c.DeliveredAt.Sub(res.CompletedAt)))
	r.w[PhaseWakeup].Add(float64(reapAt.Sub(c.DeliveredAt)))
}

// N reports how many I/Os were decomposed.
func (r *PhaseReport) N() int64 { return r.w[PhaseSubmit].N() }

// Mean reports the mean duration of a phase in nanoseconds.
func (r *PhaseReport) Mean(p Phase) float64 { return r.w[p].Mean() }

// Std reports the standard deviation of a phase in nanoseconds.
func (r *PhaseReport) Std(p Phase) float64 { return r.w[p].Std() }

// Total reports the sum of phase means — the mean completion latency.
func (r *PhaseReport) Total() float64 {
	var t float64
	for p := Phase(0); p < numPhases; p++ {
		t += r.w[p].Mean()
	}
	return t
}

// Waterfall renders the decomposition as a text table (µs).
func (r *PhaseReport) Waterfall() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %10s %7s\n", "phase", "mean(µs)", "std(µs)", "share")
	total := r.Total()
	for p := Phase(0); p < numPhases; p++ {
		share := 0.0
		if total > 0 {
			share = r.Mean(p) / total * 100
		}
		fmt.Fprintf(&b, "%-14s %10.2f %10.2f %6.1f%%\n",
			p, r.Mean(p)/1e3, r.Std(p)/1e3, share)
	}
	fmt.Fprintf(&b, "%-14s %10.2f\n", "total", total/1e3)
	return b.String()
}
