package core

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// TestWriteAblationShape pins the four-arm layout and the headline the
// ablation exists to show: the tolerant arm's maximum stays below the
// untolerant degraded arms' timeout-dominated tails.
func TestWriteAblationShape(t *testing.T) {
	rs := RunWriteAblation(sweepOpts())
	wantNames := []string{"clean", "degraded", "rebuild", "tolerant"}
	if len(rs) != len(wantNames) {
		t.Fatalf("arms = %d, want %d", len(rs), len(wantNames))
	}
	for i, r := range rs {
		if r.Name != wantNames[i] {
			t.Fatalf("arm %d is %q, want %q", i, r.Name, wantNames[i])
		}
		if r.Requests == 0 {
			t.Fatalf("arm %q served no requests", r.Name)
		}
	}
	clean := rs[0]
	if clean.FailedRequests != 0 || clean.DegradedWrites != 0 || clean.Trace != "" {
		t.Fatalf("clean arm saw faults: failed=%d degraded=%d trace=%q",
			clean.FailedRequests, clean.DegradedWrites, clean.Trace)
	}
	if clean.RMWReads != 2*clean.Requests {
		t.Fatalf("clean rmw reads = %d for %d requests", clean.RMWReads, clean.Requests)
	}
	if rs[1].Rebuild != nil || rs[2].Rebuild == nil || rs[3].Rebuild == nil {
		t.Fatal("rebuild stream attached to the wrong arms")
	}
	if rs[2].Rebuild.StripesRebuilt == 0 {
		t.Fatal("the rebuild stream made no progress")
	}
	tol, untol := rs[3], rs[2]
	if tol.Ladder.Max >= untol.Ladder.Max {
		t.Fatalf("tolerant max %d not below untolerant max %d",
			tol.Ladder.Max, untol.Ladder.Max)
	}
	if tol.DegradedWrites == 0 {
		t.Fatal("tolerant arm never parity-logged through the outage")
	}
	if untol.IOStats.Timeouts == 0 {
		t.Fatal("untolerant arm never hit the kernel timeout ladder")
	}
}

// runWriteChaos flattens one tolerant-arm write run — trace, counters,
// ladder, and rebuild progress — into a string that must be byte-stable
// across replays of the same seed.
func runWriteChaos(seed uint64) string {
	o := sweepOpts()
	o.Seed = seed
	o.Runtime = 40 * sim.Millisecond
	rs := RunWriteAblation(o)
	var buf bytes.Buffer
	for _, r := range rs {
		fmt.Fprintf(&buf, "%s: %+v\nkernel: %+v\nladder: %v\ntrace:\n%s",
			r.Name, struct {
				Req, Fail, Deg, Rec, PLog, Unp, Hedge, Wins, Dups, Susp, Probe int64
			}{r.Requests, r.FailedRequests, r.DegradedWrites, r.ReconstructWrites,
				r.ParityLogWrites, r.UnprotectedWrites, r.HedgedWrites,
				r.WriteHedgeWins, r.DupCompletions, r.Suspicions, r.Probes},
			r.IOStats, r.Ladder, r.Trace)
		if r.Rebuild != nil {
			fmt.Fprintf(&buf, "rebuild: %+v\n", *r.Rebuild)
		}
	}
	return buf.String()
}

// TestWriteChaosDeterminism extends the PR-2 replay contract to the write
// path: same seed, same fault plan, same rebuild stream — byte-identical
// trace, counters, ladders, and rebuild progress.
func TestWriteChaosDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two four-arm ablations per seed")
	}
	property := func(seed uint64) bool {
		a, b := runWriteChaos(seed), runWriteChaos(seed)
		if a != b {
			t.Logf("seed %d diverged:\n--- run A ---\n%s--- run B ---\n%s", seed, a, b)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 3}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteLadderSweepParallelIdentical runs the tolerant write arm's
// seed sweep serially and over an oversubscribed pool: the exported
// bytes must match.
func TestWriteLadderSweepParallelIdentical(t *testing.T) {
	export := func(o ExpOptions) []byte {
		var buf bytes.Buffer
		sweep := SweepArm(o, 3, "writes", "tolerant")
		if err := WriteDistributionsJSON(&buf, sweep); err != nil {
			t.Fatal(err)
		}
		if err := WriteDistributionJSON(&buf, MergeSweep("pooled", sweep)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := sweepOpts()
	serial.Runtime = 40 * sim.Millisecond
	serial.Parallel = 1
	parallel := serial
	parallel.Parallel = 8
	a, b := export(serial), export(parallel)
	if !bytes.Equal(a, b) {
		t.Fatalf("write-ladder sweep diverged: serial %d bytes, parallel %d bytes",
			len(a), len(b))
	}
	if d := SweepArm(serial, 3, "writes", "tolerant"); d[0].Config != "writes-tolerant#7" {
		t.Fatalf("sweep tag = %q", d[0].Config)
	}
}
