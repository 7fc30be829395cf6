package core

import (
	"math"
	"testing"

	"repro/internal/fio"
	"repro/internal/sim"
)

// claimCheck bounds one metric of a claim's run: got must lie in
// [lo, hi]. paper is the paper's value, for the failure message.
type claimCheck struct {
	metric string
	paper  string
	lo, hi float64
}

// paperClaim is one of the paper's quantitative claims, checked at a
// stated scale and runtime: run returns one value per check, in order.
type paperClaim struct {
	name   string
	scale  string
	run    func() []float64
	checks []claimCheck
}

// seqReadGBps is the aggregate payload rate of 64 SSDs under 128 KiB
// sequential reads at QD8 for 100 ms (experimental firmware, so SMART
// windows do not stall the stream).
func seqReadGBps() float64 {
	const bs, runtime = 128 << 10, 100 * sim.Millisecond
	sys := NewSystem(Options{NumSSDs: 64, Seed: 2018, Config: ExpFirmware()})
	var bytes float64
	for _, r := range sys.RunFIO(RunSpec{Runtime: runtime, RW: fio.SeqRead, BS: bs, IODepth: 8}) {
		if r != nil {
			bytes += float64(r.IOs) * bs
		}
	}
	return bytes / runtime.Seconds() / 1e9
}

// headlineRatios runs the abstract's headline at o and returns its
// mean(max) and σ(max) improvement ratios.
func headlineRatios(o ExpOptions) []float64 {
	h := RunHeadline(o)
	return []float64{h.MeanImprovement(), h.StdImprovement()}
}

// TestPaperClaims checks the paper's quantitative claims, each at the
// scale and runtime its row names. The headline ratios grow with the
// runtime (EXPERIMENTS.md), so its bounds hold at short runs and are
// well below the paper's ×8 / ×400.
func TestPaperClaims(t *testing.T) {
	headline64 := ExpOptions{Runtime: 500 * sim.Millisecond, Seed: 2018, NumSSDs: 64, SoloRuns: 4}
	claims := []paperClaim{
		{
			name:  "table-I-avg-read",
			scale: "64 SSDs, 200 ms, experimental firmware",
			run: func() []float64 {
				sys := NewSystem(Options{NumSSDs: 64, Seed: 2018, Config: ExpFirmware()})
				d := NewDistribution("tableI", sys.RunFIO(RunSpec{Runtime: 200 * sim.Millisecond}))
				return []float64{d.Summary.Mean[0] / 1e3}
			},
			// 25 µs design read + 5 µs through the switches, plus the
			// host path and CPU sharing on the loaded array.
			checks: []claimCheck{{metric: "avg read (µs)", paper: "25 µs device + 5 µs fabric", lo: 28, hi: 60}},
		},
		{
			name:   "seq-read-uplink",
			scale:  "64 SSDs, 128 KiB read, QD8, 100 ms",
			run:    func() []float64 { return []float64{seqReadGBps()} },
			checks: []claimCheck{{metric: "aggregate read (GB/s)", paper: "saturates the 15.8 GB/s uplink (§III-B)", lo: 8, hi: math.Inf(1)}},
		},
		{
			name:  "headline-64ssd",
			scale: "64 SSDs, 500 ms, seed 2018",
			run:   func() []float64 { return headlineRatios(headline64) },
			checks: []claimCheck{
				{metric: "mean(max) ratio", paper: "×8", lo: 2, hi: math.Inf(1)},
				{metric: "σ(max) ratio", paper: "×400", lo: 10, hi: math.Inf(1)},
			},
		},
		{
			name:  "headline-16ssd",
			scale: "16 SSDs, 500 ms, seed 7",
			run:   func() []float64 { return headlineRatios(testOpts()) },
			checks: []claimCheck{
				{metric: "mean(max) ratio", paper: "×8", lo: 1.5, hi: math.Inf(1)},
				{metric: "σ(max) ratio", paper: "×400", lo: 10, hi: math.Inf(1)},
			},
		},
	}
	for _, c := range claims {
		t.Run(c.name, func(t *testing.T) {
			got := c.run()
			for i, ck := range c.checks {
				if v := got[i]; v < ck.lo || v > ck.hi {
					t.Errorf("%s at %s = %.2f, want in [%g, %g] (paper: %s)", ck.metric, c.scale, v, ck.lo, ck.hi, ck.paper)
				} else {
					t.Logf("%s at %s = %.2f (paper: %s)", ck.metric, c.scale, v, ck.paper)
				}
			}
		})
	}
}
