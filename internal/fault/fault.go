// Package fault is the deterministic fault-injection engine: it imposes
// per-SSD failure modes — slow-NAND bins, GC storms, transient command
// errors, uncorrectable media errors, firmware stalls, and full drive
// drop-out/recovery — at scheduled simulated times, so that rare events
// become first-class, seed-reproducible citizens of the simulation.
//
// The paper's thesis is that tail latency at AFA scale is set by rare
// events; the seed repository modeled only the benign ones (SMART windows,
// CFS slices). This package supplies the malign ones, and the host layers
// respond: the kernel's timeout/retry/abort machinery (package kernel),
// RAID degraded reads and hedged reads (package raid). Everything is
// scheduled on the sim.Engine event heap and drawn from labeled rng
// streams — no wall clock, no global rand — so an identical seed and Plan
// replays an identical failure trace (asserted by test).
package fault

import (
	"fmt"
	"strings"

	"repro/internal/nvme"
	"repro/internal/sim"
)

// Window is a span of simulated time during which a fault condition holds.
type Window struct {
	At  sim.Time     // window start
	For sim.Duration // window length
}

// Profile is one SSD's fault model. The zero value (beyond SSD) is a
// healthy device; each field arms one failure mode independently.
type Profile struct {
	// SSD indexes the device this profile applies to.
	SSD int
	// ReadSlowdown ≥ 1 permanently scales NAND read time (a slow bin from
	// device binning, or worn flash needing deeper read-retry ladders).
	ReadSlowdown float64
	// WriteSlowdown ≥ 1 permanently scales the device's write-admission
	// token cost (worn flash programming slower, thermal throttling) —
	// the write-path analogue of ReadSlowdown.
	WriteSlowdown float64
	// TransientRate is the per-command probability of a retryable
	// StatusTransient completion (controller DRAM hiccups, link CRC
	// retries surfacing as internal errors).
	TransientRate float64
	// BadLBAs develop uncorrectable media errors at BadLBAsAt. Reads of
	// those slices return StatusMediaError until they are rewritten.
	BadLBAs   []int64
	BadLBAsAt sim.Time
	// GCStorms lists windows during which reads are further slowed by
	// StormFactor (default 8) — foreground GC monopolizing the channels.
	GCStorms    []Window
	StormFactor float64
	// FirmwareStalls lists windows where the controller stops draining
	// submission queues entirely (a firmware lockup; commands wait).
	FirmwareStalls []Window
	// DropAt > 0 removes the drive from the fabric at that instant; no
	// submitted or in-flight command completes while it is gone.
	// RecoverAt > DropAt brings it back (hot re-plug); 0 means never.
	DropAt    sim.Time
	RecoverAt sim.Time
}

// Plan is the complete fault schedule for a fleet.
type Plan struct {
	Profiles []Profile
}

// Event is one imposed fault transition — an entry of the failure trace.
type Event struct {
	At     sim.Time
	SSD    int
	Kind   string // "slow-bin", "transient-rate", "bad-lba", "storm-start", ...
	Detail string
}

// String renders the event as one trace line; an empty Detail adds no
// trailing separator.
func (e Event) String() string {
	s := fmt.Sprintf("%v ssd=%d %s", e.At, e.SSD, e.Kind)
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// Injector applies a Plan to a fleet. Construction validates the plan and
// schedules every transition on the engine's event heap; the injector then
// records each transition as it fires, building the failure trace.
type Injector struct {
	eng    *sim.Engine
	ssds   []*nvme.Controller
	events []Event
}

// NewInjector validates plan against the fleet and arms every profile.
// It panics on an out-of-range SSD or an inconsistent window — a bad plan
// is an experiment bug, not a runtime condition.
func NewInjector(eng *sim.Engine, ssds []*nvme.Controller, plan Plan) *Injector {
	in := &Injector{eng: eng, ssds: ssds}
	for _, p := range plan.Profiles {
		if p.SSD < 0 || p.SSD >= len(ssds) {
			panic(fmt.Sprintf("fault: profile SSD %d out of range [0,%d)", p.SSD, len(ssds)))
		}
		if p.DropAt > 0 && p.RecoverAt > 0 && p.RecoverAt <= p.DropAt {
			panic(fmt.Sprintf("fault: ssd %d recovers at %v before dropping at %v",
				p.SSD, p.RecoverAt, p.DropAt))
		}
		in.arm(p)
	}
	return in
}

// record appends one failure-trace entry at the current instant.
func (in *Injector) record(ssd int, kind, detail string) {
	in.events = append(in.events, Event{At: in.eng.Now(), SSD: ssd, Kind: kind, Detail: detail})
}

// at schedules fn at t, clamping to now for t already in the past (a
// profile applied mid-run may start windows immediately).
func (in *Injector) at(t sim.Time, fn func()) {
	if t < in.eng.Now() {
		t = in.eng.Now()
	}
	in.eng.ScheduleAt(t, fn)
}

// arm schedules every transition of one profile.
func (in *Injector) arm(p Profile) {
	ssd := in.ssds[p.SSD]
	id := p.SSD

	if p.ReadSlowdown > 1 {
		f := p.ReadSlowdown
		in.at(in.eng.Now(), func() {
			ssd.SetReadSlowdown(f)
			in.record(id, "slow-bin", fmt.Sprintf("×%.2f", f))
		})
	}
	if p.WriteSlowdown > 1 {
		f := p.WriteSlowdown
		in.at(in.eng.Now(), func() {
			ssd.SetWriteSlowdown(f)
			in.record(id, "slow-write", fmt.Sprintf("×%.2f", f))
		})
	}
	if p.TransientRate > 0 {
		rate := p.TransientRate
		in.at(in.eng.Now(), func() {
			ssd.SetTransientErrorRate(rate)
			in.record(id, "transient-rate", fmt.Sprintf("p=%.4f", rate))
		})
	}
	if len(p.BadLBAs) > 0 {
		lbas := append([]int64(nil), p.BadLBAs...)
		in.at(p.BadLBAsAt, func() {
			for _, lba := range lbas {
				ssd.MarkBadLBA(lba)
			}
			in.record(id, "bad-lba", fmt.Sprintf("n=%d", len(lbas)))
		})
	}
	storm := p.StormFactor
	if storm <= 1 {
		storm = 8
	}
	for _, w := range p.GCStorms {
		w := w
		in.at(w.At, func() {
			ssd.SetStormFactor(storm)
			in.record(id, "storm-start", fmt.Sprintf("×%.1f for %v", storm, w.For))
		})
		in.at(w.At.Add(w.For), func() {
			ssd.SetStormFactor(1)
			in.record(id, "storm-end", "")
		})
	}
	for _, w := range p.FirmwareStalls {
		w := w
		in.at(w.At, func() {
			ssd.StallSubmissionQueues(w.For)
			in.record(id, "fw-stall", fmt.Sprintf("for %v", w.For))
		})
	}
	if p.DropAt > 0 {
		in.at(p.DropAt, func() {
			ssd.SetOffline(true)
			in.record(id, "drop", "")
		})
	}
	if p.RecoverAt > 0 {
		in.at(p.RecoverAt, func() {
			ssd.SetOffline(false)
			in.record(id, "recover", "")
		})
	}
}

// TraceString renders the failure trace one event per line — the
// byte-comparable artifact the determinism property test asserts on.
func (in *Injector) TraceString() string {
	var b strings.Builder
	for _, e := range in.events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// PeriodicStalls builds stall windows of length dur every period within
// [0, horizon), starting at phase. A convenience for building plans.
// A non-positive period is rejected (nil): it can never place more than
// one window, and the naive loop would either never terminate (0) or
// walk time backwards (negative).
func PeriodicStalls(phase sim.Time, period, dur sim.Duration, horizon sim.Time) []Window {
	if period <= 0 {
		return nil
	}
	var out []Window
	for t := phase; t < horizon; t = t.Add(period) {
		out = append(out, Window{At: t, For: dur})
	}
	return out
}
