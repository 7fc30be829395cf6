package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/sim"
)

func loadOpts() ExpOptions {
	return ExpOptions{Runtime: 60 * sim.Millisecond, Seed: 7, NumSSDs: 8}
}

// TestLoadAblationKnee is the experiment's headline contract: the open
// arm shows the hockey stick (tail at and past 100% offered load blows
// up over the pre-knee rungs) and the admission arm keeps the
// latency-sensitive class on the pre-knee part of the curve even at
// 110% offered load.
func TestLoadAblationKnee(t *testing.T) {
	a := RunLoadAblation(loadOpts())
	if a.Capacity <= 0 {
		t.Fatalf("capacity probe returned %v", a.Capacity)
	}
	if got, want := len(a.Runs), 2*len(loadFracs); got != want {
		t.Fatalf("ablation produced %d runs, want %d", got, want)
	}

	byArm := map[string]map[float64]LoadRun{}
	for _, r := range a.Runs {
		if byArm[r.Arm] == nil {
			byArm[r.Arm] = map[float64]LoadRun{}
		}
		byArm[r.Arm][r.Frac] = r
		if r.Offered <= 0 || r.Completed <= 0 {
			t.Errorf("%s: offered=%d completed=%d", r.Name, r.Offered, r.Completed)
		}
		// Conservation, per class and in total: an arrival is admitted,
		// shed or still parked; an admitted one completes, fails or is
		// still in flight.
		var shed int64
		for c, cr := range r.Class {
			if cr.Admitted+cr.Shed+cr.QueueShed > cr.Offered {
				t.Errorf("%s class %d: admitted %d + shed %d + queue-shed %d > offered %d",
					r.Name, c, cr.Admitted, cr.Shed, cr.QueueShed, cr.Offered)
			}
			if cr.Completed+cr.Errors > cr.Admitted {
				t.Errorf("%s class %d: completed %d + errors %d > admitted %d",
					r.Name, c, cr.Completed, cr.Errors, cr.Admitted)
			}
			shed += cr.Shed + cr.QueueShed
		}
		if r.Shed() != shed {
			t.Errorf("%s: Shed() = %d, per-class shed sums to %d", r.Name, r.Shed(), shed)
		}
		if r.Admitted+r.Shed() > r.Offered {
			t.Errorf("%s: admitted %d + shed %d > offered %d", r.Name, r.Admitted, r.Shed(), r.Offered)
		}
		if r.Completed+r.Errors > r.Admitted {
			t.Errorf("%s: completed %d + errors %d > admitted %d", r.Name, r.Completed, r.Errors, r.Admitted)
		}
	}

	// Open arm: no admission means everything offered is admitted, and
	// the tail at >=100% load is at least 5x the pre-knee tail.
	pre := byArm["open"][0.4]
	for _, r := range a.Runs {
		if r.Arm == "open" && r.Offered != r.Admitted {
			t.Errorf("open arm at %.0f%%: offered %d != admitted %d", r.Frac*100, r.Offered, r.Admitted)
		}
	}
	for _, f := range []float64{1.1, 1.2} {
		hot := byArm["open"][f]
		if hot.Total.Rung(2) < 5*pre.Total.Rung(2) {
			t.Errorf("open arm: p99.9 at %.0f%% = %.1fµs, not 5x the 40%% rung's %.1fµs — no knee",
				f*100, hot.Total.Rung(2)/1e3, pre.Total.Rung(2)/1e3)
		}
	}
	if _, ratio, ok := a.Knee("open"); !ok {
		t.Error("Knee(open) found no knee")
	} else if ratio < 5 {
		t.Errorf("Knee(open) ratio %.1f < 5", ratio)
	}

	// Admission arm: the gated classes shed/throttle past their budgets,
	// and the latency-sensitive class p99.9 at 110% stays within 2x of
	// its own pre-knee value.
	hot := byArm["admit"][1.1]
	if hot.Shed() == 0 {
		t.Error("admit arm at 110%: background class shed nothing")
	}
	if hot.Throttled() == 0 {
		t.Error("admit arm at 110%: throughput class throttled nothing")
	}
	preLS := byArm["admit"][0.4].Class[kernel.ClassLatency].Ladder
	hotLS := hot.Class[kernel.ClassLatency].Ladder
	if hotLS.Rung(2) > 2*preLS.Rung(2) {
		t.Errorf("admit arm: LS p99.9 at 110%% = %.1fµs > 2x pre-knee %.1fµs",
			hotLS.Rung(2)/1e3, preLS.Rung(2)/1e3)
	}
	// The latency-sensitive class itself is never gated.
	if ls := hot.Class[kernel.ClassLatency]; ls.Shed != 0 || ls.Throttled != 0 {
		t.Errorf("admit arm gated the latency-sensitive class: %+v", ls)
	}

	var buf bytes.Buffer
	WriteLoadAblation(&buf, a)
	out := buf.String()
	for _, want := range []string{"capacity", "open arm:", "admit arm:", "open-arm knee"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	t.Logf("load ablation:\n%s", out)
}

// TestLoadLadderShape: the swept admission cell at 110% returns one
// ladder per QoS class and is deterministic at a fixed seed.
func TestLoadLadderShape(t *testing.T) {
	o := loadOpts()
	d := SweepArm(o, 1, "load", "load-admit-110")[0]
	if len(d.Ladders) != kernel.NumQoSClasses {
		t.Fatalf("ladder count = %d, want %d", len(d.Ladders), kernel.NumQoSClasses)
	}
	if d.Config != "load-admit-110#7" {
		t.Fatalf("config = %q", d.Config)
	}
	again := SweepArm(o, 1, "load", "load-admit-110")[0]
	if d.Summary != again.Summary {
		t.Error("same-seed load ladders differ")
	}
}
