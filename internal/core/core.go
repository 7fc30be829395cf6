// Package core is the library's public surface: it assembles the complete
// simulated testbed of Section III — a dual-socket Xeon host, the PCIe
// switch fabric, 64 NVMe SSDs, the Linux-like kernel with its background
// daemon population — and exposes the paper's four tuning knobs as named
// configurations:
//
//	Default      Section IV-A: stock kernel, stock firmware
//	CHRT         Section IV-B: + FIO at SCHED_FIFO 99
//	Isolcpus     Section IV-C: + isolcpus/nohz_full/rcu_nocbs/idle=poll/max_cstate=1
//	IRQAffinity  Section IV-D: + every NVMe vector pinned to its queue CPU
//	ExpFirmware  Section IV-E: + experimental firmware with SMART disabled
//
// Each figure and table of the evaluation section has a RunFigNN function
// that regenerates it; see EXPERIMENTS.md for the index.
package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/irq"
	"repro/internal/kernel"
	"repro/internal/nand"
	"repro/internal/nvme"
	"repro/internal/pcie"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Config is one named kernel/firmware configuration.
type Config struct {
	Name string
	// FIOClass/FIORTPrio set the workload threads' scheduling class
	// (chrt -f 99 in the paper).
	FIOClass  sched.Class
	FIORTPrio int
	// Isolate applies the Section IV-C boot options to all workload CPUs.
	Isolate bool
	// PinIRQs pins all 2,560 vectors to their queue CPUs and disables the
	// balancer.
	PinIRQs bool
	// Firmware selects the SSD firmware build.
	Firmware nvme.FirmwareKind
	// Mode selects interrupt vs polling completion (extension).
	Mode kernel.CompletionMode
	// AutoIsolate enables the Section VI future-work scheduler policy:
	// CPU-bound tasks are automatically kept off CPUs hosting I/O-bound
	// pinned tasks — no chrt, no isolcpus.
	AutoIsolate bool
	// BalancerPolicy selects the IRQ balancer algorithm; BalanceAffine is
	// the Section VI future-work "better IRQ allocation algorithm".
	BalancerPolicy irq.Policy
	// Coalesce, when positive, turns on NVMe interrupt coalescing with
	// this withhold timeout (extension; see kernel.Config.Coalesce).
	Coalesce sim.Duration
	// Timeout arms the host's per-command timeout/retry/abort machinery
	// (extension; see kernel.TimeoutPolicy). Zero means commands wait
	// forever, as on an untuned host.
	Timeout kernel.TimeoutPolicy
	// Health attaches a per-drive health tracker (health.Tracker) to the
	// kernel, fed by every managed completion. Consumers: adaptive hedge
	// deadlines (raid.Tolerance.Adaptive) and the overload/budget coupling
	// in TimeoutPolicy.
	Health bool
	// Device selects the SSD speed class for the whole fleet (extension;
	// the zero value is the paper's Table I flash device, nvme.ClassULL
	// the Z-NAND-class ultra-low-latency part).
	Device nvme.DeviceClass
	// Passthrough gives every workload job a tenant-owned SQ/CQ pair,
	// bypassing the kernel tier entirely (extension; see
	// fio.JobSpec.Passthrough). The kernel's timeout/retry machinery
	// never sees passthrough I/O, whatever Timeout says.
	Passthrough bool
}

// Default is the Section IV-A stock configuration.
func Default() Config {
	return Config{Name: "default", FIOClass: sched.ClassCFS}
}

// CHRT adds the highest FIO process priority (Section IV-B).
func CHRT() Config {
	c := Default()
	c.Name = "chrt"
	c.FIOClass = sched.ClassFIFO
	c.FIORTPrio = 99
	return c
}

// Isolcpus adds CPU isolation boot options (Section IV-C).
func Isolcpus() Config {
	c := CHRT()
	c.Name = "isolcpus"
	c.Isolate = true
	return c
}

// IRQAffinity adds vector pinning (Section IV-D). Fig 9 and Fig 13(a) use
// this configuration.
func IRQAffinity() Config {
	c := Isolcpus()
	c.Name = "irq"
	c.PinIRQs = true
	return c
}

// ExpFirmware adds the experimental SMART-disabled firmware (Section IV-E).
func ExpFirmware() Config {
	c := IRQAffinity()
	c.Name = "expfw"
	c.Firmware = nvme.FirmwareNoSMART
	return c
}

// FaultTolerance is the tuned kernel with the host-side tolerance
// machinery armed: per-command timeouts with abort and bounded-backoff
// retry. RAID-level degraded reads and hedging are per-client knobs
// (raid.Tolerance); this configuration supplies the kernel half.
func FaultTolerance() Config {
	c := IRQAffinity()
	c.Name = "fault-tolerant"
	c.Timeout = kernel.DefaultTimeoutPolicy()
	return c
}

// AdaptiveTolerance is FaultTolerance with the per-drive health tracker
// armed: the kernel learns each SSD's latency profile (Jacobson/Karels
// EWMA) and RAID clients with Tolerance.Adaptive hedge at the straggler
// drive's own learned deadline instead of a stripe-wide static quantile.
func AdaptiveTolerance() Config {
	c := FaultTolerance()
	c.Name = "adaptive"
	c.Health = true
	return c
}

// AdaptiveBudgets is AdaptiveTolerance plus the back-pressure half of the
// control plane: per-drive retry-budget token buckets (a misbehaving
// drive burns its budget and sheds to reconstruction instead of
// retry-storming) and the overload watermark (hedging pauses and
// timeouts widen while host inflight is saturated).
func AdaptiveBudgets() Config {
	c := AdaptiveTolerance()
	c.Name = "adaptive-budgets"
	c.Timeout.Budget = 8
	c.Timeout.BudgetRefill = 2 * sim.Millisecond
	c.Timeout.OverloadWatermark = 128
	c.Timeout.OverloadTimeoutScale = 2
	return c
}

// AllKernelConfigs returns the four configurations compared in Fig 12.
func AllKernelConfigs() []Config {
	return []Config{Default(), CHRT(), Isolcpus(), IRQAffinity()}
}

// FutureSched is the Section VI prototype: the default kernel with the
// auto-isolating placement policy — no manual tuning at all.
func FutureSched() Config {
	c := Default()
	c.Name = "auto-sched"
	c.AutoIsolate = true
	return c
}

// FutureIRQ is the Section VI prototype: the default kernel with an
// affinity-aware IRQ balancer instead of the stock one.
func FutureIRQ() Config {
	c := Default()
	c.Name = "affine-irq"
	c.BalancerPolicy = irq.BalanceAffine
	return c
}

// FutureBoth combines both Section VI prototypes.
func FutureBoth() Config {
	c := FutureSched()
	c.Name = "auto-both"
	c.BalancerPolicy = irq.BalanceAffine
	return c
}

// Options configure system construction.
type Options struct {
	// NumSSDs defaults to 64 (one host's share of the array).
	NumSSDs int
	Seed    uint64
	Config  Config
	// Daemons defaults to kernel.DefaultDaemons(); pass an empty non-nil
	// slice to boot without background processes.
	Daemons []kernel.DaemonSpec
	// Geom defaults to the Table I device; tests may use nand.TinyGeometry.
	Geom nand.Geometry
	// TraceEvents > 0 attaches an LTTng-like tracer retaining that many
	// raw dispatch records.
	TraceEvents int
	// FirmwareOverride, when non-zero-valued, replaces the whole firmware
	// config (not just the kind).
	FirmwareOverride *nvme.Firmware
	// FaultPlan, when non-nil, arms a fault injector over the fleet at
	// boot; the resulting Injector (and its failure trace) is exposed as
	// System.Faults.
	FaultPlan *fault.Plan
}

// System is one booted host attached to its share of the all-flash array.
type System struct {
	Eng    *sim.Engine
	Host   *topology.Host
	Fabric *pcie.Fabric
	SSDs   []*nvme.Controller
	Sched  *sched.Scheduler
	IRQ    *irq.Controller
	Kernel *kernel.Kernel
	Tracer *trace.Tracer
	Faults *fault.Injector
	Config Config
	Seed   uint64
}

// NewSystem boots a system under the given configuration.
func NewSystem(opt Options) *System {
	if opt.NumSSDs == 0 {
		opt.NumSSDs = 64
	}
	if opt.Geom.Channels == 0 {
		opt.Geom = nand.TableIGeometry()
	}
	if opt.Daemons == nil {
		opt.Daemons = kernel.DefaultDaemons()
	}
	cfg := opt.Config
	if cfg.Name == "" {
		cfg = Default()
	}

	eng := sim.NewEngine()
	host := topology.XeonE52690v2()

	boot := sched.BootOptions{}
	if cfg.Isolate {
		wl := host.WorkloadCPUs()
		boot.Isolcpus = wl
		boot.NoHzFull = wl
		boot.RCUNocbs = wl
		boot.IdlePoll = true
		boot.MaxCState = 1
	}
	siblings := make([]int, host.NumLogical())
	for i := range siblings {
		siblings[i] = host.CPU(i).Sibling
	}
	sch := sched.New(eng, sched.Config{
		NumCPUs:            host.NumLogical(),
		Boot:               boot,
		Siblings:           siblings,
		Seed:               opt.Seed,
		AutoIsolateIOBound: cfg.AutoIsolate,
	})

	popt := pcie.Options{NumSSDs: opt.NumSSDs}
	if cfg.Device == nvme.ClassULL {
		// A ULL fleet implies a ULL-era interconnect: same two-level
		// topology, but Gen4 signaling and cut-through switch silicon
		// (~250 ns/hop) instead of the 2016 store-and-forward Gen3
		// parts. Nobody deploys a ~3 µs device behind a 5 µs fabric:
		// the fixed round trip drops to 1 µs, and the doubled lane rate
		// keeps the shared uplink out of the queueing regime at the
		// IOPS a 64-device ULL fleet sustains.
		popt.HopLatency = 250 * sim.Nanosecond
		popt.BytesPerLanePerSec = pcie.Gen4BytesPerLanePerSec
	}
	fab := pcie.NewFabric(eng, popt)

	fw := nvme.DefaultFirmware()
	fw.Kind = cfg.Firmware
	if opt.FirmwareOverride != nil {
		fw = *opt.FirmwareOverride
	}
	ssds := make([]*nvme.Controller, opt.NumSSDs)
	for i := range ssds {
		ssds[i] = nvme.New(eng, nvme.Config{
			ID: i, Fabric: fab, Geom: opt.Geom, FW: fw, Seed: opt.Seed,
			Class: cfg.Device,
		})
	}

	socketOf := make([]int, host.NumLogical())
	for i := range socketOf {
		socketOf[i] = host.CPU(i).Socket
	}
	ic := irq.New(eng, sch, irq.Config{
		NumSSDs:       opt.NumSSDs,
		NumCPUs:       host.NumLogical(),
		Seed:          opt.Seed,
		StartBalanced: !cfg.PinIRQs,
		Policy:        cfg.BalancerPolicy,
		SocketOf:      socketOf,
	})
	if cfg.PinIRQs {
		ic.PinAll()
	}

	k := kernel.New(eng, kernel.Config{
		Sched: sch, IRQ: ic, SSDs: ssds, Mode: cfg.Mode,
		Coalesce: cfg.Coalesce, Timeout: cfg.Timeout, Health: cfg.Health,
		Seed: opt.Seed,
	})
	k.StartDaemons(opt.Daemons)

	sys := &System{
		Eng: eng, Host: host, Fabric: fab, SSDs: ssds,
		Sched: sch, IRQ: ic, Kernel: k, Config: cfg, Seed: opt.Seed,
	}
	if opt.FaultPlan != nil {
		sys.Faults = fault.NewInjector(eng, ssds, *opt.FaultPlan)
	}
	if opt.TraceEvents > 0 {
		sys.Tracer = trace.New(eng, opt.TraceEvents)
		sys.Tracer.AttachSched(sch)
		sys.Tracer.AttachIRQ(ic)
	}
	return sys
}

// BootCmdline renders the kernel command line this configuration implies,
// in the paper's Section IV-C notation.
func (s *System) BootCmdline() string {
	if !s.Config.Isolate {
		return ""
	}
	return "isolcpus=4-19,24-39 nohz_full=4-19,24-39 rcu_nocbs=4-19,24-39 " +
		"processor.max_cstate=1 idle=poll"
}

// FormatAll restores every SSD to FOB (the pre-run methodology of
// Section III-B) and runs the engine until the formats complete.
func (s *System) FormatAll() {
	remaining := len(s.SSDs)
	for _, d := range s.SSDs {
		d.Format(func() { remaining-- })
	}
	for remaining > 0 {
		s.Eng.RunUntil(s.Eng.Now().Add(100 * sim.Millisecond))
	}
}

func (s *System) String() string {
	return fmt.Sprintf("AFA system: %d SSDs, %d logical CPUs, config=%s",
		len(s.SSDs), s.Host.NumLogical(), s.Config.Name)
}
