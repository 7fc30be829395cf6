// Low-latency I/O-path experiments: the {IRQ, coalesced, polling,
// passthrough} × {flash, ULL} grid — the headline comparison no single
// source paper has. The 2018 paper tuned the 2016-era interrupt-driven
// stack for ~25 µs flash; the related work ("Faster than Flash", the NVMe
// I/O-queues-passthrough paper) describes what replaced it once ~3 µs
// Z-NAND-class devices made host software the dominant latency term. This
// ablation runs both device classes through all four host I/O paths and
// accounts for what each latency win costs in host CPU burn — and what
// the passthrough arm gives up in kernel tolerance (injected transient
// errors retry invisibly on the kernel arms and surface raw on the
// passthrough arm).

package core

import (
	"fmt"
	"io"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/nvme"
	"repro/internal/sim"
)

// iopathFaultSSD carries the ablation's tolerance-interaction probe: a
// small transient-error rate on one device. The kernel arms absorb the
// errors through timeout/retry (Retried > 0, Errors ≈ 0); the passthrough
// arm has no kernel underneath, so the same errors surface to the tenant.
const iopathFaultSSD = 1

// iopathTransientRate is the per-command error probability on the probe
// device — high enough to count, low enough to leave the ladders clean.
const iopathTransientRate = 0.004

// IOPathArms lists the four host I/O paths in figure order.
var IOPathArms = []string{"irq", "coalesced", "polling", "passthrough"}

// IOPathDevices lists the device classes in figure order.
var IOPathDevices = []nvme.DeviceClass{nvme.ClassFlash, nvme.ClassULL}

// iopathConfig assembles one arm's configuration on one device class.
// Every arm starts from the tuned scheduler side of ExpFirmware (chrt +
// isolcpus + no-SMART firmware) with the host tolerance machinery armed,
// so the arms differ only in the completion path:
//
//   - irq / coalesced run stock MSI-X delivery — vectors spread by the
//     balancer as shipped, so completions pay the hardirq/softirq chain
//     and, usually, a remote delivery (IPI + idle-CPU wake). Pinning the
//     2,560 vectors (Section IV-D) is itself one of the interrupt-era
//     remedies that the polling and passthrough arms subsume: those arms
//     take no interrupt at all, so there is nothing to pin.
//   - polling keeps the kernel submit path but reaps CQEs from the
//     workload thread's own context (no interrupt, no sleep/wake).
//   - passthrough maps the SQ/CQ pair into the tenant and skips the
//     kernel tier in both directions.
func iopathConfig(arm string, dev nvme.DeviceClass) Config {
	cfg := ExpFirmware()
	cfg.PinIRQs = false
	cfg.Timeout = kernel.DefaultTimeoutPolicy()
	cfg.Device = dev
	switch arm {
	case "irq":
		// Stock interrupt delivery as-is.
	case "coalesced":
		cfg.Coalesce = 20 * sim.Microsecond
	case "polling":
		cfg.Mode = kernel.CompletePolling
	case "passthrough":
		cfg.Passthrough = true
	default:
		panic(fmt.Sprintf("core: unknown iopath arm %q", arm))
	}
	cfg.Name = dev.String() + "/" + arm
	return cfg
}

// iopathFaultPlan arms the tolerance-interaction probe.
func iopathFaultPlan(sim.Duration) fault.Plan {
	return fault.Plan{Profiles: []fault.Profile{
		{SSD: iopathFaultSSD, TransientRate: iopathTransientRate},
	}}
}

// iopathGrid is the 4-arm × 2-device grid, device-major (all flash
// arms, then all ULL arms), each cell the standard per-SSD QD1 randread
// fleet under the arm's completion path with the tolerance-interaction
// probe armed, and named "device/arm". The cells compare completion
// paths, not rare-event rates, so they boot the stock housekeeping
// periods.
func iopathGrid() grid {
	g := grid{stock: true}
	for _, dev := range IOPathDevices {
		for _, name := range IOPathArms {
			cfg := iopathConfig(name, dev)
			g.arms = append(g.arms, arm{name: cfg.Name, cfg: cfg, plan: iopathFaultPlan, load: fleet{}})
		}
	}
	return g
}

// RunIOPathAblation measures the full grid (see iopathGrid). Cells are
// independent boots and fan out across o.Parallel workers.
func RunIOPathAblation(o ExpOptions) []FIORun {
	return each(iopathGrid().run(o), func(r armRun) FIORun { return r.fio })
}

// WriteIOPathAblation renders the grid RunIOPathAblation returns
// (device-major, IOPathArms within each device): per-device rung × arm
// latency tables, the counter rows underneath, and the two verdict
// lines the acceptance question asks — does the flash device keep the
// paper's ordering, and do polling/passthrough invert it on ULL.
func WriteIOPathAblation(w io.Writer, runs []FIORun) {
	for d, dev := range IOPathDevices {
		arms := runs[d*len(IOPathArms) : (d+1)*len(IOPathArms)]
		fmt.Fprintf(w, "%s device, per-SSD QD1 randread (pooled ladders):\n", dev)
		rows := rungRows(arms, func(r FIORun, i int) float64 { return r.Pooled.Rung(i) })
		writeSideBySide(w, 10, 14, "lat(µs)", IOPathArms, rows)
		fmt.Fprintln(w)
		rows = counterRows(arms, []counter[FIORun]{
			{"ios", func(r FIORun) int64 { return r.IOs }},
			{"errors", func(r FIORun) int64 { return r.Errors }},
			{"retried", func(r FIORun) int64 { return r.Retried }},
			{"timedout", func(r FIORun) int64 { return r.TimedOut }},
			{"pollspins", func(r FIORun) int64 { return r.PollSpins }},
			{"irqs", FIORun.IRQs},
			{"cpu(ms)", func(r FIORun) int64 { return r.BusyNs / 1e6 }},
		})
		rows = append(rows, tableRow{"cpu/io(µs)", cells(arms, "%.2f", func(r FIORun) any { return r.CPUPerIO() / 1e3 })})
		writeSideBySide(w, 10, 14, "", nil, rows)
		fmt.Fprintln(w)
	}

	// Verdicts: the flash ordering and the ULL inversion.
	find := func(dev, arm string) *FIORun {
		for i := range runs {
			if runs[i].Config == dev+"/"+arm {
				return &runs[i]
			}
		}
		return nil
	}
	if irq, poll, pt := find("flash", "irq"), find("flash", "polling"), find("flash", "passthrough"); irq != nil && poll != nil && pt != nil {
		fmt.Fprintf(w, "flash: polling %.2f× and passthrough %.2f× vs irq mean — "+
			"the paper's regime: the ~25 µs device bounds the win\n",
			irq.Mean()/poll.Mean(), irq.Mean()/pt.Mean())
	}
	if irq, poll, pt := find("ull", "irq"), find("ull", "polling"), find("ull", "passthrough"); irq != nil && poll != nil && pt != nil {
		verdict := "INVERTED: host software dominated the device"
		if irq.Mean() < 2*poll.Mean() || irq.Mean() < 2*pt.Mean() {
			verdict = "NOT inverted (expected ≥2× for polling and passthrough)"
		}
		fmt.Fprintf(w, "ull:   polling %.2f× and passthrough %.2f× vs irq mean — %s\n",
			irq.Mean()/poll.Mean(), irq.Mean()/pt.Mean(), verdict)
	}
	if ptF, ptU := find("flash", "passthrough"), find("ull", "passthrough"); ptF != nil && ptU != nil {
		fmt.Fprintf(w, "tolerance: passthrough surfaced %d raw errors (flash) / %d (ull); "+
			"kernel arms retried them invisibly\n", ptF.Errors, ptU.Errors)
	}
}
