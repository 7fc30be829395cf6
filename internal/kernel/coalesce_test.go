package kernel

import (
	"testing"

	"repro/internal/nvme"
	"repro/internal/sched"
	"repro/internal/sim"
)

func TestCoalescingDisabledByDefault(t *testing.T) {
	r := newRig(t, 2, 1, sched.BootOptions{}, CompleteInterrupt)
	if r.k.coalesce != 0 || r.k.coalescers != nil {
		t.Fatal("coalescing on without configuration")
	}
}

func newCoalescingRig(t *testing.T, timeout sim.Duration) *rig {
	t.Helper()
	return bootRig(t, 2, 1, sched.BootOptions{}, Config{Coalesce: timeout})
}

func TestCoalescingBatchesOnThreshold(t *testing.T) {
	r := newCoalescingRig(t, 10*sim.Millisecond)
	got := 0
	for i := 0; i < coalesceBatch; i++ {
		r.k.SubmitIO(1, 0, nvme.Command{Op: nvme.OpRead, LBA: int64(i)}, func(Completion) { got++ })
	}
	r.eng.RunUntil(sim.Time(5 * sim.Millisecond))
	if got != coalesceBatch {
		t.Fatalf("completions = %d", got)
	}
	local, remote, _ := r.k.IRQ.Stats()
	if local+remote != 1 {
		t.Fatalf("interrupts = %d for a full batch of %d", local+remote, coalesceBatch)
	}
}

func TestCoalescingTimeoutFlushesLoners(t *testing.T) {
	r := newCoalescingRig(t, 200*sim.Microsecond)
	var comp Completion
	got := false
	r.k.SubmitIO(1, 0, nvme.Command{Op: nvme.OpRead, LBA: 1}, func(c Completion) {
		comp = c
		got = true
	})
	r.eng.RunUntil(sim.Time(2 * sim.Millisecond))
	if !got {
		t.Fatal("lone CQE never flushed")
	}
	lat := comp.DeliveredAt.Sub(comp.Result.SubmittedAt)
	// The CQE waited out (most of) the 200µs timeout on top of ~30µs device time.
	if lat < 200*sim.Microsecond {
		t.Fatalf("lone coalesced completion delivered after %v, want ≥ timeout", lat)
	}
	if local, remote, _ := r.k.IRQ.Stats(); local+remote != 1 {
		t.Fatalf("interrupts = %d", local+remote)
	}
}

func TestCoalescingSeparateQueues(t *testing.T) {
	r := newCoalescingRig(t, 10*sim.Millisecond)
	// Two different submitting CPUs → two coalescers; neither reaches the
	// threshold, so both flush by timeout → 2 interrupts.
	done := 0
	r.k.SubmitIO(0, 0, nvme.Command{Op: nvme.OpRead, LBA: 1}, func(Completion) { done++ })
	r.k.SubmitIO(1, 0, nvme.Command{Op: nvme.OpRead, LBA: 2}, func(Completion) { done++ })
	r.eng.RunUntil(sim.Time(30 * sim.Millisecond))
	if done != 2 {
		t.Fatalf("completions = %d", done)
	}
	if local, remote, _ := r.k.IRQ.Stats(); local+remote != 2 {
		t.Fatalf("interrupts = %d, want one per queue", local+remote)
	}
}

func TestCoalescingWakePenaltyChargedOncePerBatch(t *testing.T) {
	r := newCoalescingRig(t, 10*sim.Millisecond)
	// Force remote delivery so a penalty exists.
	r.k.IRQ.Pin(0, 1)
	var comps []Completion
	// Use a scattered controller instead: simplest is to verify the
	// fan-out invariant — at most one non-zero penalty per batch.
	for i := 0; i < coalesceBatch; i++ {
		r.k.SubmitIO(1, 0, nvme.Command{Op: nvme.OpRead, LBA: int64(i)}, func(c Completion) {
			comps = append(comps, c)
		})
	}
	r.eng.RunUntil(sim.Time(5 * sim.Millisecond))
	if len(comps) != coalesceBatch {
		t.Fatalf("completions = %d", len(comps))
	}
	nonZero := 0
	for _, c := range comps {
		if c.WakePenalty > 0 {
			nonZero++
		}
	}
	if nonZero > 1 {
		t.Fatalf("%d completions carried a wake penalty; at most one per interrupt", nonZero)
	}
}
