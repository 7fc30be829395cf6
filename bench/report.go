package main

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/fio"
	"repro/internal/sim"
)

// metric is one reported number. Host-time metrics are a statistic of
// per-repetition samples; the rest come from one repetition.
type metric struct {
	Name  string
	Unit  string
	Value float64
	// Samples are the per-repetition values of a host-time metric, and
	// Stat names the statistic of them that Value is.
	Samples []float64
	Stat    string
	// NA says why the metric does not apply to this workload. The JSON
	// record still carries it, as 0, so every workload reports the same
	// names.
	NA string
}

// check is one correctness check of a run.
type check struct {
	Name   string
	OK     bool
	Detail string
}

// report is everything one workload's run prints.
type report struct {
	Workload workload
	Seed     uint64
	Full     rep
	Timing   []rep
	Traced   *rep
	EndToEnd []metric
	PerLayer []metric
	Checks   []check
}

// all is every repetition the report covers: the full-scale one, the
// timing ones, and the traced one last.
func (r *report) all() []rep {
	all := append([]rep{r.Full}, r.Timing...)
	if r.Traced != nil {
		all = append(all, *r.Traced)
	}
	return all
}

func (r *report) ok() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// scaled converts a host time x that repetition rp measured to the
// reference speed (see reference.go).
func scaled(rp rep, x float64) float64 {
	return x * refNominalNs / rp.Host.RefNs
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// summarize turns a workload's full-scale repetition, its timing
// repetitions, its traced repetition (nil unless traced) and the probe
// costs (nil unless traced) into metrics and checks.
func summarize(w workload, seed uint64, full rep, timing []rep, traced *rep, probes map[string]float64) *report {
	r := &report{Workload: w, Seed: seed, Full: full, Timing: timing, Traced: traced}
	s := full.Sim
	c := s.Counts
	a := s.Attempted

	samples := func(reps []rep, f func(rep) float64) []float64 {
		xs := make([]float64, len(reps))
		for i, rp := range reps {
			xs[i] = f(rp)
		}
		return xs
	}
	fromSamples := func(name, unit, stat string, xs []float64) metric {
		return metric{Name: name, Unit: unit, Value: median(xs), Stat: stat, Samples: xs}
	}
	hostNs := fromSamples("host_ns_per_io", "ns", "median of the timing repetitions, at reference speed",
		samples(timing, func(rp rep) float64 { return scaled(rp, ratio(rp.Host.RunNs, rp.Sim.Attempted)) }))
	setup := fromSamples("setup_s", "s", "median of the untraced repetitions, at reference speed",
		samples(append([]rep{full}, timing...), func(rp rep) float64 { return scaled(rp, float64(rp.Host.SetupNs)/1e9) }))
	r.EndToEnd = []metric{
		setup,
		hostNs,
		{Name: "events_per_io", Unit: "events/io", Value: ratio(s.Events, a)},
		{Name: "allocs_per_io", Unit: "allocs/io", Value: ratio(full.Host.Allocs, a)},
		{Name: "alloc_bytes_per_io", Unit: "B/io", Value: ratio(full.Host.AllocBytes, a)},
		{Name: "rss_peak_mb", Unit: "MB", Value: float64(full.Host.RSSPeakKB) / 1024},
		{Name: "sim_kiops", Unit: "kIOPS", Value: float64(s.Completed) / (float64(s.RuntimeNs) / 1e9) / 1e3},
		{Name: "sim_lat_mean_us", Unit: "us", Value: s.LatMeanNs / 1e3},
		{Name: "sim_lat_p99_us", Unit: "us", Value: s.LatP99Ns / 1e3},
		{Name: "sim_lat_p9999_us", Unit: "us", Value: s.LatP9999Ns / 1e3},
		{Name: "completed_share", Unit: "ratio", Value: ratio(s.Completed, a)},
	}

	isRAID := w.name == "raid-hedge-faults"
	isMux := w.name == "open-mux-10k"
	na := func(m metric, cond bool, why string) metric {
		if cond {
			m.Value, m.NA = 0, why
		}
		return m
	}
	deliveries := c[cIRQLocal] + c[cIRQRemote]
	perIO := func(name, unit string, n int64) metric {
		return metric{Name: name, Unit: unit, Value: ratio(n, a)}
	}
	const noRAID, noMux = "no RAID client", "no multiplexer"
	r.PerLayer = []metric{
		perIO("sched.switches_per_io", "switches/io", c[cSwitches]),
		{Name: "sched.busy_us_per_io", Unit: "us/io", Value: ratio(c[cBusyNs], a) / 1e3},
		{Name: "sched.stolen_us_per_io", Unit: "us/io", Value: ratio(c[cStolenNs], a) / 1e3},
		perIO("irq.deliveries_per_io", "irqs/io", deliveries),
		na(metric{Name: "irq.remote_share", Unit: "ratio", Value: ratio(c[cIRQRemote], deliveries)},
			deliveries == 0, "no interrupts"),
		perIO("kernel.retries_per_io", "retries/io", c[cRetries]),
		perIO("kernel.timeouts_per_io", "timeouts/io", c[cTimeouts]),
		{Name: "kernel.shed_to_reconstruct", Unit: "count", Value: float64(c[cShedToReconstruct])},
		perIO("nvme.cmds_per_io", "cmds/io", c[cCmds]),
		{Name: "nvme.smart_blocked_share", Unit: "ratio", Value: ratio(c[cSMARTBlocked], c[cCmds])},
		perIO("nvme.device_errors_per_io", "errors/io", c[cDeviceErrors]),
		perIO("nand.reads_per_io", "reads/io", c[cNANDReads]),
		perIO("nand.writes_per_io", "writes/io", c[cNANDWrites]),
		na(metric{Name: "nand.gc_moves_per_write", Unit: "moves/write", Value: ratio(c[cGCMoves], c[cNANDWrites])},
			c[cNANDWrites] == 0, "no NAND writes"),
		{Name: "pcie.uplink_util", Unit: "ratio", Value: ratio(c[cUplinkBusyNs], c[cElapsedNs])},
		na(perIO("fio.poll_spins_per_io", "spins/io", c[cPollSpins]), isRAID, "no fio job"),
		na(metric{Name: "fio.mux.admitted_share", Unit: "ratio", Value: ratio(c[cMuxAdmitted], c[cMuxOffered])},
			!isMux, noMux),
		na(perIO("raid.subios_per_req", "subios/req", c[cSubIOs]), !isRAID, noRAID),
		na(perIO("raid.hedges_per_req", "hedges/req", c[cHedges]), !isRAID, noRAID),
		na(na(metric{Name: "raid.hedge_win_share", Unit: "ratio", Value: ratio(c[cHedgeWins], c[cHedges])},
			c[cHedges] == 0, "no hedges fired"), !isRAID, noRAID),
		na(perIO("raid.late_subios_per_req", "subios/req", c[cLateSubIOs]), !isRAID, noRAID),
		na(metric{Name: "raid.rebuild_done_share", Unit: "ratio", Value: ratio(c[cRebuildDone], c[cRebuildStripes])},
			!isRAID, noRAID),
		na(metric{Name: "health.max_suspicion_permille", Unit: "permille", Value: float64(c[cMaxSuspicion])},
			!isRAID, "no health tracker"),
		{Name: "failed_share", Unit: "ratio", Value: ratio(s.Failed, a)},
		{Name: "shed_share", Unit: "ratio", Value: ratio(s.Shed, a)},
		{Name: "unfinished_share", Unit: "ratio", Value: ratio(s.Unfinished, a)},
		fromSamples("host.raw_ns_per_io", "ns", "median of the timing repetitions, as measured",
			samples(timing, func(rp rep) float64 { return ratio(rp.Host.RunNs, rp.Sim.Attempted) })),
		fromSamples("host.ref_ns", "ns", "median of the timing repetitions",
			samples(timing, func(rp rep) float64 { return rp.Host.RefNs })),
	}
	if traced != nil && probes != nil {
		r.PerLayer = append(r.PerLayer, tracedMetrics(s, full, *traced, hostNs.Value, probes)...)
	}
	r.Checks = checks(full, timing, traced)
	return r
}

// phaseMetricNames are the traced phase means, in fio.PhaseLabels order.
func phaseMetricNames() []string {
	names := make([]string, len(fio.PhaseLabels))
	for i, l := range fio.PhaseLabels {
		names[i] = "phase." + strings.ReplaceAll(l, "+", "_") + "_us"
	}
	return names
}

// tracedMetrics are the per-layer metrics only the traced run and the
// probes give: phase means, tracer counts, tracing overhead (against the
// untraced full-scale repetition), probe costs, and the cost model that
// reconciles them with host_ns_per_io.
func tracedMetrics(s simResult, full, traced rep, hostNs float64, probes map[string]float64) []metric {
	c := s.Counts
	a := s.Attempted
	t := traced.Trace
	var out []metric
	transfers := ratio(t.Transfers, a)
	out = append(out, metric{Name: "pcie.transfers_per_io", Unit: "xfers/io", Value: transfers})
	for i, name := range phaseMetricNames() {
		m := metric{Name: name, Unit: "us"}
		if t.PhaseMeansNs == nil {
			m.NA = "the entry point exposes no phases"
		} else {
			m.Value = t.PhaseMeansNs[i] / 1e3
		}
		out = append(out, m)
	}
	out = append(out,
		metric{Name: "phase.decomposed_share", Unit: "ratio", Value: ratio(t.PhaseN, s.Completed)},
		metric{Name: "trace.foreign_tasks", Unit: "tasks", Value: float64(t.ForeignTasks)},
		metric{Name: "trace.foreign_dispatches_per_io", Unit: "dispatches/io", Value: ratio(t.ForeignDispatches, a)},
	)
	out = append(out, metric{Name: "trace.overhead_share", Unit: "ratio",
		Value: scaled(traced, float64(traced.Host.RunNs))/scaled(full, float64(full.Host.RunNs)) - 1})

	names := make([]string, 0, len(probes))
	for name := range probes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		unit := "ns"
		if strings.HasSuffix(name, "_allocs") {
			unit = "allocs/op"
		}
		out = append(out, metric{Name: name, Unit: unit, Value: probes[name]})
	}

	// Σ count/io × self ns: the events, the samples recorded, and each
	// layer's operations at its probe's self cost. Every I/O here goes
	// through the kernel, so kernel I/Os are counted as NVMe commands.
	cmds := ratio(c[cCmds], a)
	predicted := ratio(s.Events, a)*probes["probe.sim.event_ns"] +
		ratio(s.Completed, a)*probes["probe.stats.record_ns"] +
		ratio(c[cNANDReads], a)*probes["probe.nand.read_ns"] +
		ratio(c[cNANDWrites], a)*probes["probe.nand.write_ns"] +
		transfers*probes["probe.pcie.transfer_ns"] +
		cmds*(probes["probe.nvme.cmd_self_ns"]+probes["probe.kernel.io_self_ns"]) +
		ratio(c[cIRQLocal]+c[cIRQRemote], a)*probes["probe.irq.deliver_self_ns"] +
		ratio(c[cSwitches], a)*probes["probe.sched.exec_wake_self_ns"]
	out = append(out,
		metric{Name: "model.predicted_ns_per_io", Unit: "ns", Value: predicted},
		metric{Name: "model.coverage", Unit: "ratio", Value: predicted / hostNs},
	)
	return out
}

// checks verifies a run's outputs.
func checks(full rep, timing []rep, traced *rep) []check {
	var out []check
	add := func(name string, ok bool, format string, args ...any) {
		out = append(out, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	}
	simJSON := func(rp rep) string {
		b, _ := json.Marshal(rp.Sim) // decoded from JSON, so it encodes
		return string(b)
	}
	same := true
	for _, rp := range timing[1:] {
		same = same && simJSON(rp) == simJSON(timing[0])
	}
	add("deterministic", same, "%d timing repetitions, simulated results and counts identical", len(timing))
	if traced != nil {
		add("trace-neutral", simJSON(*traced) == simJSON(full),
			"traced run's simulated results and counts equal the untraced run's")
	}
	s := full.Sim
	sum := s.Completed + s.Failed + s.Shed + s.Unfinished
	add("conservation", s.Attempted == sum,
		"attempted %d = completed %d + failed %d + shed %d + unfinished %d (= %d)",
		s.Attempted, s.Completed, s.Failed, s.Shed, s.Unfinished, sum)
	add("completed", s.Completed > 0, "%d ops completed", s.Completed)
	add("unfinished", ratio(s.Unfinished, s.Attempted) <= 0.01,
		"unfinished_share %.6f <= 0.01", ratio(s.Unfinished, s.Attempted))
	beyond := float64(s.Completed) * (1 - 0.9999)
	add("tail-samples", beyond >= 10, "%.0f samples beyond p99.99 (>= 10)", beyond)
	return out
}

// writeText prints the human-readable report: every metric by name with
// its unit, then the checks.
func (r *report) writeText(out io.Writer, trace bool) {
	w := r.Workload
	fmt.Fprintf(out, "== %s  seed=%d\n   %s\n   %v simulated at full scale, %v in each of %d timing repetitions\n",
		w.name, r.Seed, w.desc, sim.Duration(r.Full.Sim.RuntimeNs), w.timing.Runtime, len(r.Timing))
	fmt.Fprintf(out, "   %s\n", w.why)
	fmt.Fprintln(out, "end-to-end")
	for _, m := range r.EndToEnd {
		writeMetric(out, m)
	}
	fmt.Fprintln(out, "per-layer")
	for _, m := range r.PerLayer {
		writeMetric(out, m)
	}
	if !trace {
		fmt.Fprintln(out, "   (phases, tracer counts, probes and the cost model: rerun with -trace 1)")
	}
	fmt.Fprintln(out, "checks")
	for _, c := range r.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(out, "  %s %-14s %s\n", status, c.Name, c.Detail)
	}
}

func writeMetric(out io.Writer, m metric) {
	switch {
	case m.NA != "":
		fmt.Fprintf(out, "  %-34s %14s %-12s (%s)\n", m.Name, "n/a", m.Unit, m.NA)
	case m.Samples != nil:
		fmt.Fprintf(out, "  %-34s %14.6g %-12s (%s; n=%d, min %.6g, max %.6g)\n",
			m.Name, m.Value, m.Unit, m.Stat, len(m.Samples), slices.Min(m.Samples), slices.Max(m.Samples))
	default:
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
}

// result is the one-line JSON record the run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record builds the JSON record: the end-to-end metrics, or with trace
// the per-layer ones. attempted and failed sum every repetition run.
func (r *report) record(trace bool) result {
	res := result{Correct: r.ok(), Metrics: map[string]resultValue{}}
	for _, rp := range r.all() {
		res.Attempted += rp.Sim.Attempted
		res.Failed += rp.Sim.Failed + rp.Sim.Shed + rp.Sim.Unfinished
	}
	ms := r.EndToEnd
	if trace {
		ms = r.PerLayer
	}
	for _, m := range ms {
		res.Metrics[m.Name] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	return res
}
