package core

import "testing"

// TestIOPathAblationShape pins the structural contract of the I/O-path
// grid at quick-test scale: cell order (device-major), per-arm path
// markers (interrupts only on the interrupt arms, poll spins only on
// the spinning arms), and the tolerance interaction — the injected
// transient errors are retried invisibly by the kernel arms and surface
// raw on the passthrough arm.
func TestIOPathAblationShape(t *testing.T) {
	runs := RunIOPathAblation(sweepOpts())
	if len(runs) != len(IOPathDevices)*len(IOPathArms) {
		t.Fatalf("ablation produced %d cells, want %d",
			len(runs), len(IOPathDevices)*len(IOPathArms))
	}
	i := 0
	for _, dev := range IOPathDevices {
		for _, arm := range IOPathArms {
			r := runs[i]
			i++
			if want := dev.String() + "/" + arm; r.Config != want {
				t.Fatalf("cell %d is %q, want %q", i-1, r.Config, want)
			}
			if r.IOs == 0 {
				t.Errorf("%s served no I/Os", r.Config)
			}
			irqDriven := arm == "irq" || arm == "coalesced"
			if gotIRQs := r.LocalIRQs+r.RemoteIRQs > 0; gotIRQs != irqDriven {
				t.Errorf("%s: interrupts=%v, want %v", r.Config, gotIRQs, irqDriven)
			}
			spinning := arm == "polling" || arm == "passthrough"
			if gotSpins := r.PollSpins > 0; gotSpins != spinning {
				t.Errorf("%s: pollspins=%d, spinning arm=%v", r.Config, r.PollSpins, spinning)
			}
			if arm == "passthrough" {
				if r.Retried != 0 || r.TimedOut != 0 {
					t.Errorf("%s: kernel rescued passthrough I/O (retried=%d timedout=%d)",
						r.Config, r.Retried, r.TimedOut)
				}
				if r.Errors == 0 {
					t.Errorf("%s: injected transient errors did not surface to the tenant", r.Config)
				}
			} else {
				if r.Errors != 0 {
					t.Errorf("%s: %d errors leaked past the kernel retry machinery", r.Config, r.Errors)
				}
				if r.Retried == 0 {
					t.Errorf("%s: kernel arm retried nothing against the fault probe", r.Config)
				}
			}
		}
	}
}

// TestIOPathOrdering pins the figure's two verdicts: on the flash
// device the paths stay within the paper's device-bound band, and on
// the ULL device polling and passthrough beat the stock interrupt path
// by at least 2× mean latency — host software, not the device, is the
// dominant term.
func TestIOPathOrdering(t *testing.T) {
	runs := RunIOPathAblation(sweepOpts())
	mean := map[string]float64{}
	for _, r := range runs {
		mean[r.Config] = r.Mean()
	}
	// Flash: faster paths still help, but the ~25 µs device bounds the
	// win well below 2×.
	for _, arm := range []string{"polling", "passthrough"} {
		ratio := mean["flash/irq"] / mean["flash/"+arm]
		if ratio <= 1.0 || ratio >= 2.0 {
			t.Errorf("flash %s ratio %.2f× vs irq, want modest (1×..2×)", arm, ratio)
		}
	}
	// ULL: the acceptance inversion.
	for _, arm := range []string{"polling", "passthrough"} {
		if ratio := mean["ull/irq"] / mean["ull/"+arm]; ratio < 2.0 {
			t.Errorf("ull %s ratio %.2f× vs irq, want ≥2×", arm, ratio)
		}
	}
	// Passthrough strictly beats kernel polling on ULL: the remaining
	// gap is exactly the kernel submit/complete path.
	if mean["ull/passthrough"] >= mean["ull/polling"] {
		t.Errorf("ull passthrough mean %.0f ≥ polling %.0f",
			mean["ull/passthrough"], mean["ull/polling"])
	}
}

// TestIOPathLadderShape pins the swept form of the fastest cell: its
// per-SSD ladders per seed, labelled for the cell.
func TestIOPathLadderShape(t *testing.T) {
	d := SweepArm(sweepOpts(), 1, "iopath", "ull/passthrough")[0]
	if d.Config != "iopath-ull-passthrough#7" {
		t.Errorf("Config = %q", d.Config)
	}
	if len(d.Ladders) == 0 || d.Summary.N == 0 {
		t.Errorf("ladder empty: %d ladders, summary over %d", len(d.Ladders), d.Summary.N)
	}
}
