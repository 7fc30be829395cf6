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
	"strings"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/stats"
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
		cfg.Coalesce = kernel.Coalescing{Threshold: 4, Timeout: 20 * sim.Microsecond}
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

// iopathCell splits a grid run's "device/arm" name.
func iopathCell(r FIORun) (dev, arm string) {
	dev, arm, _ = strings.Cut(r.Config, "/")
	return dev, arm
}

// iopathFaultPlan arms the tolerance-interaction probe.
func iopathFaultPlan() fault.Plan {
	return fault.Plan{Profiles: []fault.Profile{
		{SSD: iopathFaultSSD, TransientRate: iopathTransientRate},
	}}
}

// iopathArm is one (arm, device) cell: the standard per-SSD QD1
// randread fleet under the arm's completion path, with the
// tolerance-interaction probe armed.
func iopathArm(arm string, dev nvme.DeviceClass) fioArm {
	cfg := iopathConfig(arm, dev)
	return fioArm{name: cfg.Name, cfg: cfg, plan: iopathFaultPlan}
}

// iopathOpts boots the grid's systems with the stock housekeeping
// periods: the cells compare completion paths, not rare-event rates.
func iopathOpts(o ExpOptions) ExpOptions {
	o = o.withDefaults()
	o.TimeScale = 1
	return o
}

// RunIOPathAblation measures the full 4-arm × 2-device grid. Cells are
// independent boots and fan out across o.Parallel workers; the result is
// ordered device-major (all flash arms, then all ULL arms), matching
// IOPathDevices × IOPathArms, and each cell is named "device/arm".
func RunIOPathAblation(o ExpOptions) []FIORun {
	var arms []fioArm
	for _, dev := range IOPathDevices {
		for _, arm := range IOPathArms {
			arms = append(arms, iopathArm(arm, dev))
		}
	}
	return runFIOArms(iopathOpts(o), arms)
}

// RunIOPathLadder is the sweepable single-distribution form: the ULL
// passthrough cell's per-SSD ladders at one seed, for RunSeedSweep
// pooling (the fastest arm is the one whose tail needs the resolution).
func RunIOPathLadder(o ExpOptions) Distribution {
	a := iopathArm("passthrough", nvme.ClassULL)
	a.name = "iopath-ull-passthrough"
	return runFIOArm(iopathOpts(o), a).Distribution
}

// WriteIOPathAblation renders the grid: per-device rung × arm latency
// tables, the counter rows underneath, and the two verdict lines the
// acceptance question asks — does the flash device keep the paper's
// ordering, and do polling/passthrough invert it on ULL.
func WriteIOPathAblation(w io.Writer, runs []FIORun) {
	byDev := map[string][]FIORun{}
	var devOrder []string
	for _, r := range runs {
		dev, _ := iopathCell(r)
		if _, ok := byDev[dev]; !ok {
			devOrder = append(devOrder, dev)
		}
		byDev[dev] = append(byDev[dev], r)
	}
	for _, dev := range devOrder {
		arms := byDev[dev]
		fmt.Fprintf(w, "%s device, per-SSD QD1 randread (pooled ladders):\n", dev)
		fmt.Fprintf(w, "%-10s", "lat(µs)")
		for _, r := range arms {
			_, arm := iopathCell(r)
			fmt.Fprintf(w, " %14s", arm)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%-10s", "mean")
		for _, r := range arms {
			fmt.Fprintf(w, " %14.1f", r.Mean()/1e3)
		}
		fmt.Fprintln(w)
		for i := 0; i < stats.NumRungs; i++ {
			fmt.Fprintf(w, "%-10s", stats.LadderLabels[i])
			for _, r := range arms {
				fmt.Fprintf(w, " %14.1f", r.Pooled.Rung(i)/1e3)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%-10s", "max")
		for _, r := range arms {
			fmt.Fprintf(w, " %14.1f", float64(r.Pooled.Max)/1e3)
		}
		fmt.Fprintln(w)

		fmt.Fprintln(w)
		row := func(label string, f func(FIORun) int64) {
			fmt.Fprintf(w, "%-10s", label)
			for _, r := range arms {
				fmt.Fprintf(w, " %14d", f(r))
			}
			fmt.Fprintln(w)
		}
		row("ios", func(r FIORun) int64 { return r.IOs })
		row("errors", func(r FIORun) int64 { return r.Errors })
		row("retried", func(r FIORun) int64 { return r.Retried })
		row("timedout", func(r FIORun) int64 { return r.TimedOut })
		row("pollspins", func(r FIORun) int64 { return r.PollSpins })
		row("irqs", FIORun.IRQs)
		row("cpu(ms)", func(r FIORun) int64 { return r.BusyNs / 1e6 })
		fmt.Fprintf(w, "%-10s", "cpu/io(µs)")
		for _, r := range arms {
			fmt.Fprintf(w, " %14.2f", r.CPUPerIO()/1e3)
		}
		fmt.Fprintln(w)
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
