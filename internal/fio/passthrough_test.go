package fio

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

// newTolerantRig is newRig with the kernel's timeout/retry machinery
// armed — the contrast rig for the passthrough fault tests: the same
// injected fault is rescued on the kernel path and surfaces raw on a
// tenant-owned queue pair.
func newTolerantRig(t *testing.T, ncpu, nssd int, pol kernel.TimeoutPolicy) *rig {
	t.Helper()
	eng := sim.NewEngine()
	sch := sched.New(eng, sched.Config{NumCPUs: ncpu, Seed: 5,
		Boot: sched.BootOptions{IdlePoll: true}})
	fab := pcie.NewFabric(eng, pcie.Options{NumSSDs: nssd})
	fw := nvme.DefaultFirmware()
	fw.Kind = nvme.FirmwareNoSMART
	var ssds []*nvme.Controller
	for i := 0; i < nssd; i++ {
		ssds = append(ssds, nvme.New(eng, nvme.Config{
			ID: i, Fabric: fab, FW: fw, Seed: 5, Geom: nand.TinyGeometry()}))
	}
	ic := irq.New(eng, sch, irq.Config{NumSSDs: nssd, NumCPUs: ncpu, Seed: 5})
	k := kernel.New(eng, kernel.Config{Sched: sch, IRQ: ic, SSDs: ssds,
		Timeout: pol, Seed: 5})
	return &rig{eng: eng, k: k}
}

func runOne(r *rig, spec JobSpec) *Result {
	return RunGroup(r.eng, r.k, []JobSpec{spec})[0]
}

// TestPassthroughBypassesKernel: a tenant-owned queue pair never
// touches the kernel tier — no interrupts, no managed commands — and
// its QD1 latency lands under the interrupt path's.
func TestPassthroughBypassesKernel(t *testing.T) {
	irqRes := runOne(newRig(t, 2, 1, kernel.CompleteInterrupt, nvme.FirmwareNoSMART), JobSpec{
		SSD: 0, RW: RandRead, Runtime: 100 * sim.Millisecond, CPUsAllowed: []int{1}, Seed: 1,
	})
	r := newRig(t, 2, 1, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)
	res := runOne(r, JobSpec{
		SSD: 0, RW: RandRead, Runtime: 100 * sim.Millisecond, CPUsAllowed: []int{1},
		Passthrough: true, Seed: 1,
	})
	if res.IOs < 1000 {
		t.Fatalf("only %d IOs in 100ms", res.IOs)
	}
	if res.PollSpins == 0 {
		t.Error("passthrough job never spun on its CQ")
	}
	if res.Ladder.Avg >= irqRes.Ladder.Avg {
		t.Errorf("passthrough avg %.1fµs ≥ interrupt avg %.1fµs",
			res.Ladder.Avg/1e3, irqRes.Ladder.Avg/1e3)
	}
	if st := r.k.IOStats(); st != (kernel.IOStats{}) {
		t.Errorf("kernel tolerance counters moved on a passthrough-only run: %+v", st)
	}
}

// TestPassthroughMediaErrorsSurface: uncorrectable media errors on a
// tenant-owned queue reach the tenant as raw error completions; the
// kernel tier neither sees nor counts them.
func TestPassthroughMediaErrorsSurface(t *testing.T) {
	r := newTolerantRig(t, 2, 1, kernel.DefaultTimeoutPolicy())
	// Poison a band of the logical space so a random-read job hits it.
	for lba := int64(0); lba < 800; lba++ {
		r.k.SSDs[0].MarkBadLBA(lba)
	}
	res := runOne(r, JobSpec{
		SSD: 0, RW: RandRead, Runtime: 100 * sim.Millisecond, CPUsAllowed: []int{1},
		Passthrough: true, Seed: 1,
	})
	if res.Errors == 0 {
		t.Fatal("no media errors surfaced to the tenant")
	}
	if res.Retried != 0 || res.TimedOut != 0 {
		t.Errorf("kernel rescued passthrough I/O: retried=%d timedout=%d",
			res.Retried, res.TimedOut)
	}
	if st := r.k.IOStats(); st.MediaErrors != 0 {
		t.Errorf("kernel counted %d media errors it never saw", st.MediaErrors)
	}
}

// TestPassthroughTransientErrorsSurface: the same transient-error storm
// is retried invisibly by the kernel path (errors=0, retries>0) and
// surfaces raw on the passthrough queue (errors>0, retries=0).
func TestPassthroughTransientErrorsSurface(t *testing.T) {
	pol := kernel.DefaultTimeoutPolicy()
	for _, passthrough := range []bool{false, true} {
		r := newTolerantRig(t, 2, 1, pol)
		r.k.SSDs[0].SetTransientErrorRate(0.05)
		res := runOne(r, JobSpec{
			SSD: 0, RW: RandRead, Runtime: 100 * sim.Millisecond, CPUsAllowed: []int{1},
			Passthrough: passthrough, Seed: 1,
		})
		if passthrough {
			if res.Errors == 0 {
				t.Error("passthrough: transient errors did not surface")
			}
			if res.Retried != 0 {
				t.Errorf("passthrough: kernel retried %d commands", res.Retried)
			}
		} else {
			if res.Errors != 0 {
				t.Errorf("kernel path: %d transient errors leaked past retry", res.Errors)
			}
			if res.Retried == 0 {
				t.Error("kernel path: nothing retried under a 5% transient rate")
			}
		}
	}
}

// TestPassthroughFirmwareStallSurfaces: a firmware stall mid-run shows
// up on the kernel path as timeout/retry rescues, and on the
// passthrough queue as nothing but raw tail latency — the tenant waits
// out the stall with no timeout machinery underneath.
func TestPassthroughFirmwareStallSurfaces(t *testing.T) {
	pol := kernel.TimeoutPolicy{
		Timeout: 200 * sim.Microsecond, MaxRetries: 8,
		Backoff: 100 * sim.Microsecond, BackoffMax: sim.Millisecond,
		AbortCost: 10 * sim.Microsecond,
	}
	const stall = 2 * sim.Millisecond
	for _, passthrough := range []bool{false, true} {
		r := newTolerantRig(t, 2, 1, pol)
		r.eng.Schedule(20*sim.Millisecond, func() {
			r.k.SSDs[0].StallSubmissionQueues(stall)
		})
		res := runOne(r, JobSpec{
			SSD: 0, RW: RandRead, Runtime: 100 * sim.Millisecond, CPUsAllowed: []int{1},
			Passthrough: passthrough, Seed: 1,
		})
		st := r.k.IOStats()
		if passthrough {
			if res.Retried != 0 || res.TimedOut != 0 || st.Timeouts != 0 {
				t.Errorf("passthrough: kernel machinery fired (retried=%d timedout=%d timeouts=%d)",
					res.Retried, res.TimedOut, st.Timeouts)
			}
			if max := sim.Duration(res.Ladder.Max); max < stall {
				t.Errorf("passthrough: max latency %v < %v stall — stall did not surface", max, stall)
			}
		} else {
			if st.Timeouts == 0 || res.Retried == 0 {
				t.Errorf("kernel path: stall triggered no rescue (timeouts=%d retried=%d)",
					st.Timeouts, res.Retried)
			}
			if res.Errors != 0 {
				t.Errorf("kernel path: %d errors after a recoverable stall", res.Errors)
			}
		}
	}
}
