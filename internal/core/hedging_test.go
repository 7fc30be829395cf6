package core

import (
	"strings"
	"testing"
)

// TestHedgingAblationShape pins the structural contract of the
// three-arm hedging ablation at quick-test scale: arm order and names,
// health snapshots only where a tracker ran, the adaptive arms firing
// fewer hedges than the static blanket policy, and the budgets arm
// actually shedding retries. The latency acceptance (adaptive+budgets
// p99.9 at or below static with fewer hedges) needs full-length runs to
// resolve the 99.9% rung and is recorded in EXPERIMENTS.md.
func TestHedgingAblationShape(t *testing.T) {
	runs := RunHedgingAblation(sweepOpts())
	if len(runs) != 3 {
		t.Fatalf("ablation produced %d arms, want 3", len(runs))
	}
	wantNames := []string{"static", "adaptive", "adaptive+budgets"}
	for i, r := range runs {
		if r.Name != wantNames[i] {
			t.Fatalf("arm %d is %q, want %q", i, r.Name, wantNames[i])
		}
		if r.Requests == 0 {
			t.Errorf("%s served no requests", r.Name)
		}
		if r.FailedRequests != 0 {
			t.Errorf("%s failed %d requests under full tolerance", r.Name, r.FailedRequests)
		}
		if !strings.Contains(r.Trace, "drop") || !strings.Contains(r.Trace, "storm-start") {
			t.Errorf("%s trace missing imposed faults:\n%s", r.Name, r.Trace)
		}
	}

	static, adaptive, budgets := runs[0], runs[1], runs[2]
	if static.Drives != nil {
		t.Errorf("static arm carries %d health snapshots, want none", len(static.Drives))
	}
	for _, r := range []RAIDRun{adaptive, budgets} {
		if len(r.Drives) != FaultStripeWidth+1 {
			t.Fatalf("%s has %d drive snapshots, want %d", r.Name, len(r.Drives), FaultStripeWidth+1)
		}
		// The tracker must have seen the fleet: the dropped member's
		// timeouts and the slow bin's elevated baseline.
		if r.Drives[0].Timeouts == 0 {
			t.Errorf("%s: dropped member 0 recorded no timeouts", r.Name)
		}
		if r.Drives[3].SRTT <= 2*r.Drives[1].SRTT {
			t.Errorf("%s: slow bin srtt %v not elevated over healthy %v",
				r.Name, r.Drives[3].SRTT, r.Drives[1].SRTT)
		}
		if r.HedgedReads >= static.HedgedReads {
			t.Errorf("%s fired %d hedges, static only %d — per-drive deadlines should hedge less",
				r.Name, r.HedgedReads, static.HedgedReads)
		}
	}

	// Only the budgets arm runs with Budget > 0; against the dropped
	// member it must shed retries rather than storm.
	if static.IOStats.ShedToReconstruct != 0 || adaptive.IOStats.ShedToReconstruct != 0 {
		t.Errorf("budget-less arms shed retries: static=%d adaptive=%d",
			static.IOStats.ShedToReconstruct, adaptive.IOStats.ShedToReconstruct)
	}
	if budgets.IOStats.ShedToReconstruct == 0 {
		t.Error("budgets arm shed no retries during the outage")
	}
	if budgets.IOStats.Retries >= adaptive.IOStats.Retries {
		t.Errorf("budgets arm retried %d times, adaptive %d — budgets should cut retry traffic",
			budgets.IOStats.Retries, adaptive.IOStats.Retries)
	}
}

// TestHedgeLadderShape pins the swept form of the full control-plane
// arm: one client ladder per seed, labelled for the arm.
func TestHedgeLadderShape(t *testing.T) {
	d := SweepArm(sweepOpts(), 1, "hedging", "adaptive+budgets")[0]
	if d.Config != "hedging-adaptive-budgets#7" {
		t.Errorf("Config = %q", d.Config)
	}
	if len(d.Ladders) != 1 {
		t.Fatalf("ladders = %d, want 1", len(d.Ladders))
	}
	if d.Summary.N != 1 || d.Summary.Max[0] == 0 {
		t.Errorf("summary not built from the run: %+v", d.Summary)
	}
}
