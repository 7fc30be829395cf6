// Tailhunt replays the paper's root-causing methodology (Sections IV-B and
// IV-D): run the workload under the default kernel configuration with the
// LTTng-like tracer attached, identify which background processes executed
// on the FIO CPUs and which NVMe vectors ran on the wrong CPU, then apply
// the fixes and show the tail collapsing.
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/sim"
)

const runtime = 500 * sim.Millisecond

func measure(cfg core.Config, traced bool) (*core.System, core.Distribution) {
	opt := core.Options{NumSSDs: 16, Seed: 3, Config: cfg}
	if traced {
		opt.TraceEvents = 1000
	}
	sys := core.NewSystem(opt)
	res := sys.RunFIO(core.RunSpec{Runtime: runtime})
	return sys, core.NewDistribution(cfg.Name, res)
}

// remoteFraction is the share of interrupt deliveries since boot that
// executed off their vector's queue CPU.
func remoteFraction(sys *core.System) float64 {
	local, remote, _ := sys.IRQ.Stats()
	return float64(remote) / float64(local+remote)
}

func main() {
	fmt.Println("== Step 1: measure under the default configuration (traced) ==")
	sys, def := measure(core.Default(), true)
	core.WriteDistributionTable(os.Stdout, def)

	fmt.Println("\n== Step 2: who interfered? (sched_switch analysis, Section IV-B) ==")
	foreign := sys.Tracer.ForeignTasksOn(sys.Host.WorkloadCPUs(), "fio/")
	for i, f := range foreign {
		if i >= 8 {
			fmt.Printf("  ... %d more\n", len(foreign)-i)
			break
		}
		fmt.Printf("  %-20s dispatched %4d times on cpu(%d)\n", f.Task, f.Dispatches, f.CPU)
	}

	fmt.Println("\n== Step 3: where did interrupts execute? (irq analysis, Section IV-D) ==")
	fmt.Printf("  %.1f%% of deliveries executed on a remote CPU\n", 100*remoteFraction(sys))
	for i, m := range sys.Tracer.MisroutedVectors() {
		if i >= 5 {
			break
		}
		fmt.Printf("  %s\n", m)
	}

	fmt.Println("\n== Step 4: apply chrt + isolcpus + IRQ pinning and re-measure ==")
	tunedSys, tuned := measure(core.IRQAffinity(), true)
	core.WriteDistributionTable(os.Stdout, tuned)
	fmt.Printf("\nremote deliveries after pinning: %.1f%%\n", 100*remoteFraction(tunedSys))

	maxRung := 6
	fmt.Printf("\nmean worst-case latency: %.0fµs → %.0fµs (×%.1f better)\n",
		def.Summary.Mean[maxRung]/1e3, tuned.Summary.Mean[maxRung]/1e3,
		def.Summary.Mean[maxRung]/tuned.Summary.Mean[maxRung])
}
