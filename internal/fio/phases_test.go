package fio

import (
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/nvme"
	"repro/internal/sim"
)

func TestPhaseDecompositionSumsToLatency(t *testing.T) {
	r := newRig(t, 2, 1, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)
	res := RunGroup(r.eng, r.k, []JobSpec{{
		SSD: 0, RW: RandRead, Runtime: 200 * sim.Millisecond, CPUsAllowed: []int{1},
		Phases: true, Seed: 1,
	}})[0]
	if res.Phases == nil || res.Phases.N() == 0 {
		t.Fatal("no phase data collected")
	}
	// The phase means must sum to the mean completion latency (within
	// accumulation error).
	total := res.Phases.Total()
	diff := total - res.Ladder.Avg
	if diff < 0 {
		diff = -diff
	}
	if diff/res.Ladder.Avg > 0.01 {
		t.Fatalf("phase sum %.0fns vs mean clat %.0fns", total, res.Ladder.Avg)
	}
	// Media dominates a quiet QD1 read (NAND ≈ 20µs of ≈ 36µs).
	if res.Phases.Mean(PhaseMedia) < 0.4*total {
		t.Fatalf("media phase = %.0fns of %.0fns; expected dominant", res.Phases.Mean(PhaseMedia), total)
	}
	// No housekeeping with SMART disabled.
	if res.Phases.Mean(PhaseHousekeeping) != 0 {
		t.Fatalf("housekeeping = %.0fns with FirmwareNoSMART", res.Phases.Mean(PhaseHousekeeping))
	}
}

func TestPhaseHousekeepingVisibleWithSMART(t *testing.T) {
	r := newRig(t, 2, 1, kernel.CompleteInterrupt, nvme.FirmwareStandard)
	// Compress the SMART period so a short run sees windows.
	fw := nvme.DefaultFirmware()
	fw.SMARTPeriod = 100 * sim.Millisecond
	r.k.SSDs[0].SetFirmware(fw)
	res := RunGroup(r.eng, r.k, []JobSpec{{
		SSD: 0, RW: RandRead, Runtime: 500 * sim.Millisecond, CPUsAllowed: []int{1},
		Phases: true, Seed: 1,
	}})[0]
	if res.Phases.Mean(PhaseHousekeeping) <= 0 {
		t.Fatal("housekeeping phase empty despite SMART windows")
	}
}

func TestPhaseWakeupReflectsRemoteDeliveries(t *testing.T) {
	spec := JobSpec{SSD: 0, RW: RandRead, Runtime: 200 * sim.Millisecond,
		CPUsAllowed: []int{1}, Phases: true, Seed: 1}

	local := newRig(t, 4, 1, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)
	rl := RunGroup(local.eng, local.k, []JobSpec{spec})[0]

	remote := newRigBalanced(t, 4, 1)
	rr := RunGroup(remote.eng, remote.k, []JobSpec{spec})[0]
	if rr.RemoteIRQs == 0 {
		t.Skip("balancer happened to leave the active vector local")
	}
	// Remote deliveries pay IPI + cold-cache in the interrupt/wakeup
	// phases; the decomposition must show it.
	gotExtra := (rr.Phases.Mean(PhaseInterrupt) + rr.Phases.Mean(PhaseWakeup)) -
		(rl.Phases.Mean(PhaseInterrupt) + rl.Phases.Mean(PhaseWakeup))
	if gotExtra < 3000 { // ≥3µs of the ≈9µs penalty must land in these phases
		t.Fatalf("remote delivery extra = %.0fns in interrupt+wakeup phases", gotExtra)
	}
}

func TestWaterfallRendering(t *testing.T) {
	r := newRig(t, 2, 1, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)
	res := RunGroup(r.eng, r.k, []JobSpec{{
		SSD: 0, RW: RandRead, Runtime: 100 * sim.Millisecond, CPUsAllowed: []int{1},
		Phases: true, Seed: 1,
	}})[0]
	w := res.Phases.Waterfall()
	for _, want := range append(PhaseLabels, "total", "share") {
		if !strings.Contains(w, want) {
			t.Fatalf("waterfall missing %q:\n%s", want, w)
		}
	}
}

func TestPhasesSkipNonMediaCommands(t *testing.T) {
	var rep PhaseReport
	rep.add(&kernel.Completion{}, 0) // zero-valued: no media timestamps
	if rep.N() != 0 {
		t.Fatal("non-media command decomposed")
	}
}
