package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// sweepOpts are deliberately small: the cross-checks below run every
// fan-out experiment shape twice (serial and parallel), and what they
// assert is scheduling-independence, not latency values.
func sweepOpts() ExpOptions {
	return ExpOptions{Runtime: 60 * sim.Millisecond, Seed: 7, NumSSDs: 12, SoloRuns: 2}
}

// exportFanOuts renders every parallelized experiment shape through the
// public export path: the config fan-out (Fig 12), the geometry fan-out
// (Fig 13, including the solo-run merge), the mixed baseline+client
// fan-out (tail-at-scale), the three-arm fault ablation, the four-arm
// write ablation (rebuild stream included), the three-arm hedging
// ablation (health trackers included), the I/O-path grid (four
// completion paths × two device classes), the open-loop load ablation
// (capacity probe plus the rung × arm grid), a seed sweep, the two-arm
// coalescing ablation, and the FOB-vs-used study (preconditioning
// inside the arm's job), then each ablation's seed-sweep unit at two
// seeds (writes, hedging, load, iopath). The exported bytes are the
// reproducibility contract.
func exportFanOuts(t *testing.T, o ExpOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteDistributionsJSON(&buf, RunFig12(o)); err != nil {
		t.Fatal(err)
	}
	for _, d := range RunFig13(o) {
		if err := WriteDistributionJSON(&buf, d); err != nil {
			t.Fatal(err)
		}
	}
	perSSD, clients := RunTailAtScale(ExpFirmware(), []int{1, 4}, o)
	writeFIORuns(t, &buf, []FIORun{perSSD})
	writeRAIDRuns(t, &buf, clients)
	for _, runs := range [][]RAIDRun{RunFaultAblation(o), RunWriteAblation(o), RunHedgingAblation(o)} {
		writeRAIDRuns(t, &buf, runs)
	}
	writeFIORuns(t, &buf, RunIOPathAblation(o))
	la := RunLoadAblation(o)
	fmt.Fprintf(&buf, "load capacity=%.3f\n", la.Capacity)
	for _, lr := range la.Runs {
		fmt.Fprintf(&buf, "%s frac=%.2f offered=%d admitted=%d completed=%d shed=%d throttled=%d errors=%d\n",
			lr.Name, lr.Frac, lr.Offered, lr.Admitted, lr.Completed, lr.Shed(), lr.Throttled(), lr.Errors)
		ladders := append([]stats.Ladder{lr.Total}, lr.Class[0].Ladder, lr.Class[1].Ladder, lr.Class[2].Ladder)
		if err := WriteDistributionJSON(&buf, Distribution{
			Config: lr.Name, Ladders: ladders, Summary: stats.Summarize(ladders),
		}); err != nil {
			t.Fatal(err)
		}
	}
	sweep := RunSeedSweep(o, 3, func(so ExpOptions) Distribution {
		return RunLatencyDistribution(CHRT(), so)
	})
	if err := WriteDistributionsJSON(&buf, sweep); err != nil {
		t.Fatal(err)
	}
	if err := WriteDistributionJSON(&buf, MergeSweep("sweep", sweep)); err != nil {
		t.Fatal(err)
	}
	writeFIORuns(t, &buf, RunCoalescingAblation(o))
	if err := WriteDistributionsJSON(&buf, RunUsedStateStudy(o)); err != nil {
		t.Fatal(err)
	}
	for _, swept := range [][2]string{{"writes", "tolerant"}, {"hedging", "adaptive+budgets"},
		{"load", "load-admit-110"}, {"iopath", "ull/passthrough"}} {
		if err := WriteDistributionsJSON(&buf, SweepArm(o, 2, swept[0], swept[1])); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// writeFIORuns prints every closed-loop arm field the reproducibility
// contract covers: the fleet and host counters, the pooled ladder and
// the per-SSD distribution.
func writeFIORuns(t *testing.T, buf *bytes.Buffer, runs []FIORun) {
	t.Helper()
	for _, r := range runs {
		fmt.Fprintf(buf, "%s ios=%d iops=%.6f errors=%d retried=%d timedout=%d pollspins=%d "+
			"local-irqs=%d remote-irqs=%d busy=%d\npooled %+v\n",
			r.Config, r.IOs, r.IOPS, r.Errors, r.Retried, r.TimedOut, r.PollSpins,
			r.LocalIRQs, r.RemoteIRQs, r.BusyNs, r.Pooled)
		if err := WriteDistributionJSON(buf, r.Distribution); err != nil {
			t.Fatal(err)
		}
	}
}

// writeRAIDRuns prints every RAID-ablation field the reproducibility
// contract covers: the union of the read, write and hedging counters,
// the kernel tolerance counters, the failure trace, the rebuild
// stream's progress, the health snapshots, and the client ladder.
func writeRAIDRuns(t *testing.T, buf *bytes.Buffer, runs []RAIDRun) {
	t.Helper()
	for _, r := range runs {
		fmt.Fprintf(buf, "%s requests=%d failed=%d degraded=%d hedged=%d wins=%d suppressed=%d "+
			"degraded-writes=%d parity-log=%d unprotected=%d hedged-writes=%d dups=%d\nkernel %+v\n%s\n",
			r.Name, r.Requests, r.FailedRequests, r.DegradedReads, r.HedgedReads, r.HedgeWins,
			r.HedgesSuppressed, r.DegradedWrites, r.ParityLogWrites, r.UnprotectedWrites,
			r.HedgedWrites, r.DupCompletions, r.IOStats, r.Trace)
		if r.Rebuild != nil {
			fmt.Fprintf(buf, "rebuild %d/%d failed=%d reads=%d writes=%d\n",
				r.Rebuild.StripesRebuilt, r.Rebuild.Spec.Stripes,
				r.Rebuild.StripesFailed, r.Rebuild.Reads, r.Rebuild.Writes)
		}
		for _, d := range r.Drives {
			fmt.Fprintf(buf, "drive %+v\n", d)
		}
		ladders := []stats.Ladder{r.Ladder}
		if err := WriteDistributionJSON(buf, Distribution{
			Config: r.Name, Ladders: ladders, Summary: stats.Summarize(ladders),
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// fanOutsSHA256 is the sha256 of the serial exportFanOuts bytes. Serial
// and parallel runs agreeing with each other does not catch a change
// that moves both the same way; this digest does. A model change that
// moves a report on purpose records the new value in the same commit.
const fanOutsSHA256 = "d4a271ec045a2be3e9dcaaf507a2c094620584b5e4e692aca39c0527e37613a9"

// TestParallelDeterminism is the tentpole guarantee of the runner
// layer: the exported reports of every fan-out experiment are
// byte-identical between the serial reference order (-parallel 1) and
// an oversubscribed pool (-parallel 8), regardless of goroutine
// scheduling, and the serial bytes hash to fanOutsSHA256.
// scripts/check.sh runs it under -race with the rest of the suite.
func TestParallelDeterminism(t *testing.T) {
	serial := sweepOpts()
	serial.Parallel = 1
	parallel := sweepOpts()
	parallel.Parallel = 8

	a := exportFanOuts(t, serial)
	b := exportFanOuts(t, parallel)
	if !bytes.Equal(a, b) {
		t.Fatalf("parallel export diverged from serial reference:\nserial   %d bytes\nparallel %d bytes", len(a), len(b))
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(a)); got != fanOutsSHA256 {
		t.Fatalf("serial export moved: sha256 %s, want %s", got, fanOutsSHA256)
	}
}

// TestSeedSweepShape pins the sweep conventions the CLI prints: n
// distributions in seed order, tagged config#seed, with position 0
// exactly the unswept run, and the pooled merge covering every ladder.
func TestSeedSweepShape(t *testing.T) {
	o := sweepOpts()
	run := func(so ExpOptions) Distribution { return RunLatencyDistribution(CHRT(), so) }
	sweep := RunSeedSweep(o, 3, run)
	if len(sweep) != 3 {
		t.Fatalf("sweep produced %d distributions, want 3", len(sweep))
	}
	wantNames := []string{"chrt#7", "chrt#8", "chrt#9"}
	for i, d := range sweep {
		if d.Config != wantNames[i] {
			t.Errorf("sweep[%d].Config = %q, want %q", i, d.Config, wantNames[i])
		}
	}
	base := run(o)
	if sweep[0].Summary != base.Summary {
		t.Error("sweep position 0 differs from the unswept run at the same seed")
	}
	if sweep[1].Summary == sweep[0].Summary {
		t.Error("distinct sweep seeds produced identical summaries")
	}
	merged := MergeSweep("pool", sweep)
	if got, want := len(merged.Ladders), 3*o.NumSSDs; got != want {
		t.Errorf("merged sweep has %d ladders, want %d", got, want)
	}
}
