// Command nvmectl is an nvme-cli-flavored admin tool for the simulated
// array: it boots one host's share and issues admin commands against the
// raw devices, the way the paper's methodology drives the real testbed
// (nvme format before every run, SMART log pages for health).
//
// Usage:
//
//	nvmectl list                      # enumerate devices (BIOS view)
//	nvmectl id-ctrl  -dev 3           # Identify Controller
//	nvmectl smart-log -dev 3          # SMART / health log page
//	nvmectl format   -dev 3           # NVMe format → FOB
//	nvmectl profile  [-dev 3]         # quick latency profile (one or all)
//
// Flags -ssds, -seed, -config select the simulated array.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/topology"
)

func main() {
	fs := flag.NewFlagSet("nvmectl", flag.ExitOnError)
	ssds := fs.Int("ssds", 64, "number of SSDs in the array")
	seed := fs.Uint64("seed", 1, "simulation seed")
	cfgName := fs.String("config", "irq", "kernel config: default|chrt|isolcpus|irq|expfw")
	dev := fs.Int("dev", -1, "target device index")

	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	cfg, err := resolve(cmd, *cfgName, *ssds, *dev)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvmectl:", err)
		os.Exit(2)
	}

	sys := core.NewSystem(core.Options{NumSSDs: *ssds, Seed: *seed, Config: cfg})

	switch cmd {
	case "list":
		list(sys)
	case "id-ctrl":
		idCtrl(sys, *dev)
	case "smart-log":
		smartLog(sys, *dev)
	case "format":
		format(sys, *dev)
	case "profile":
		profile(sys, *dev)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: nvmectl <list|id-ctrl|smart-log|format|profile> [flags]")
	os.Exit(2)
}

// resolve checks the command and its flags before anything boots, and
// returns the kernel config -config names. -ssds must be at least 1 and
// -dev must name a device of the array; -dev -1, its default, means
// every device and is accepted by list and profile only.
func resolve(cmd, cfgName string, ssds, dev int) (core.Config, error) {
	var cfg core.Config
	allowAll := false
	switch cmd {
	case "list", "profile":
		allowAll = true
	case "id-ctrl", "smart-log", "format":
	default:
		return cfg, fmt.Errorf("unknown command %q (have list, id-ctrl, smart-log, format, profile)", cmd)
	}
	switch cfgName {
	case "default":
		cfg = core.Default()
	case "chrt":
		cfg = core.CHRT()
	case "isolcpus":
		cfg = core.Isolcpus()
	case "irq":
		cfg = core.IRQAffinity()
	case "expfw":
		cfg = core.ExpFirmware()
	default:
		return cfg, fmt.Errorf("unknown config %q (have default, chrt, isolcpus, irq, expfw)", cfgName)
	}
	switch {
	case ssds < 1:
		return cfg, fmt.Errorf("-ssds must be >= 1, got %d", ssds)
	case dev == -1 && allowAll:
	case dev < 0 || dev >= ssds:
		return cfg, fmt.Errorf("%s: -dev must be in [0,%d), got %d", cmd, ssds, dev)
	}
	return cfg, nil
}

func list(sys *core.System) {
	fmt.Printf("%-12s %-16s %-14s %10s %8s\n", "Node", "Model", "Serial", "Capacity", "FW")
	for i, d := range sys.SSDs {
		var id nvme.IdentifyController
		got := false
		d.Identify(func(x nvme.IdentifyController) { id = x; got = true })
		sys.Eng.RunUntil(sys.Eng.Now().Add(sim.Millisecond))
		if !got {
			fmt.Fprintf(os.Stderr, "identify of nvme%d timed out\n", i)
			os.Exit(1)
		}
		fmt.Printf("/dev/nvme%-3d %-16s %-14s %7dGB %8s\n",
			i, id.ModelNumber, id.SerialNumber, id.TotalCapacityGB, id.FirmwareRev)
	}
}

func idCtrl(sys *core.System, dev int) {
	sys.SSDs[dev].Identify(func(id nvme.IdentifyController) {
		fmt.Printf("mn        : %s\n", id.ModelNumber)
		fmt.Printf("sn        : %s\n", id.SerialNumber)
		fmt.Printf("fr        : %s\n", id.FirmwareRev)
		fmt.Printf("tnvmcap   : %d GB\n", id.TotalCapacityGB)
		fmt.Printf("nn        : %d\n", id.NumNamespaces)
		fmt.Printf("mdts      : %d KiB\n", id.MaxTransferBytes/1024)
	})
	sys.Eng.RunUntil(sys.Eng.Now().Add(sim.Millisecond))
}

func smartLog(sys *core.System, dev int) {
	// Put some traffic on the device first so the counters mean something.
	sys.SSDs[dev].SubmitTo(nvme.Command{Op: nvme.OpRead, LBA: 1}, nvme.ReceiverFunc(func(*nvme.Result) {}))
	sys.Eng.RunUntil(sys.Eng.Now().Add(sim.Millisecond))
	sys.SSDs[dev].GetLogPage(func(log nvme.SMARTLog) {
		fmt.Printf("Smart Log for NVME device nvme%d\n", dev)
		fmt.Printf("power_on_ios            : %d\n", log.PowerOnIOs)
		fmt.Printf("smart_windows           : %d\n", log.SMARTWindows)
		fmt.Printf("ios_blocked_by_smart    : %d\n", log.MediaBlocked)
		fmt.Printf("firmware_build          : %s\n", log.FirmwareBuild)
	})
	sys.Eng.RunUntil(sys.Eng.Now().Add(sim.Millisecond))
}

func format(sys *core.System, dev int) {
	done := false
	sys.SSDs[dev].Format(func() { done = true })
	for !done {
		sys.Eng.RunUntil(sys.Eng.Now().Add(100 * sim.Millisecond))
	}
	fmt.Printf("Success formatting namespace 1 of /dev/nvme%d (device is FOB)\n", dev)
}

func profile(sys *core.System, dev int) {
	spec := core.RunSpec{Runtime: 200 * sim.Millisecond}
	if dev >= 0 {
		// Single-device profile: solo geometry on that SSD.
		g := soloFor(sys, dev)
		spec.Geometry = g
	}
	results := sys.RunFIO(spec)
	for i, r := range results {
		if r == nil {
			continue
		}
		fmt.Printf("nvme%-3d %s\n", i, r.Ladder.String())
	}
}

func soloFor(sys *core.System, dev int) *topology.Geometry {
	g := topology.DefaultGeometry(sys.Host, len(sys.SSDs))
	for i := range g.ThreadCPU {
		if i != dev {
			g.ThreadCPU[i] = -1
		}
	}
	return g
}
