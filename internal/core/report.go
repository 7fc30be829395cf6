package core

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/stats"
)

// WriteDistributionTable renders a Distribution the way the figures are
// read: one row per ladder rung, with the cross-SSD mean, standard
// deviation, and min/max spread, in microseconds.
func WriteDistributionTable(w io.Writer, d Distribution) {
	fmt.Fprintf(w, "config=%s  ssds=%d\n", d.Config, d.Summary.N)
	fmt.Fprintf(w, "%-10s %12s %12s %12s %12s\n", "rung", "mean(µs)", "std(µs)", "min(µs)", "max(µs)")
	for r := 0; r < stats.NumRungs; r++ {
		fmt.Fprintf(w, "%-10s %12.1f %12.1f %12.1f %12.1f\n",
			stats.LadderLabels[r],
			d.Summary.Mean[r]/1e3, d.Summary.Std[r]/1e3,
			d.Summary.Min[r]/1e3, d.Summary.Max[r]/1e3)
	}
}

// WriteComparisonTable renders several Distributions side by side (Fig 12 /
// Fig 14 style): one block for means, one for standard deviations.
func WriteComparisonTable(w io.Writer, ds []Distribution) {
	names := cells(ds, "%s", func(d Distribution) any { return d.Config })
	writeSideBySide(w, 10, 12, "mean(µs)", names, rungRows(ds, func(d Distribution, i int) float64 { return d.Summary.Mean[i] }))
	fmt.Fprintln(w)
	writeSideBySide(w, 10, 12, "std(µs)", names, rungRows(ds, func(d Distribution, i int) float64 { return d.Summary.Std[i] }))
}

// WriteTableII renders Table II.
func WriteTableII(w io.Writer) {
	fmt.Fprintf(w, "%-8s %16s %16s %16s %16s %6s\n",
		"Fig", "SSDs/phys core", "IRQ/log core", "FIO/log core", "FIO threads", "runs")
	for _, row := range TableII() {
		per := fmt.Sprintf("%d", row.SSDsPerPhysCore)
		if row.SSDsPerPhysCore == 0 {
			per = "solo"
		}
		fmt.Fprintf(w, "%-8s %16s %16d %16d %16d %6d\n",
			row.Fig, per, row.IRQPerLogicalCore, row.FIOPerLogicalCore,
			row.FIOThreadsInSystem, row.Runs)
	}
}

// WriteFig10Summary renders the scatter data: an ASCII time×latency
// scatter of all logged samples (the shape of the paper's Fig 10 — a flat
// baseline with periodic spike columns), followed by the detected spike
// clusters.
func WriteFig10Summary(w io.Writer, r Fig10Result) {
	total := 0
	var all []stats.Sample
	var horizon int64
	for _, log := range r.Logs {
		total += len(log)
		all = append(all, log...)
		if n := len(log); n > 0 && log[n-1].At > horizon {
			horizon = log[n-1].At
		}
	}
	clusters := append([]int64(nil), r.SpikeClusters...)
	sort.Slice(clusters, func(i, j int) bool { return clusters[i] < clusters[j] })
	fmt.Fprintf(w, "logged SSDs=%d  samples=%d  firmware SMART windows=%d  spike clusters=%d\n",
		len(r.Logs), total, r.SMARTWindows, len(clusters))

	if horizon > 0 && total > 0 {
		buckets := stats.Bucketize(all, horizon+1, 72, 200_000)
		bands, labels := stats.DefaultLatencyBands()
		fmt.Fprintf(w, "\nmax latency per time bucket (%.0f ms/column):\n",
			float64(horizon)/72/1e6)
		fmt.Fprint(w, stats.RenderScatter(buckets, bands, labels))
	}

	for i, c := range clusters {
		if i >= 16 {
			fmt.Fprintf(w, "  ... %d more\n", len(clusters)-i)
			break
		}
		fmt.Fprintf(w, "  cluster at t=%.3fs\n", float64(c)/1e9)
	}
}

// WriteHeadline renders the abstract's claim check.
func WriteHeadline(w io.Writer, h Headline) {
	fmt.Fprintf(w, "max latency across SSDs (µs):\n")
	fmt.Fprintf(w, "  default: mean=%.1f std=%.1f\n", h.DefaultMeanMax/1e3, h.DefaultStdMax/1e3)
	fmt.Fprintf(w, "  tuned:   mean=%.1f std=%.1f\n", h.TunedMeanMax/1e3, h.TunedStdMax/1e3)
	fmt.Fprintf(w, "  improvement: mean ×%.1f, std ×%.1f (paper: ×8 and ×400)\n",
		h.MeanImprovement(), h.StdImprovement())
}
