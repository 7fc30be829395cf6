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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one command and returns the exit code: 2 for a usage
// error, reported as one line on stderr before anything boots, 1 if the
// command fails, 0 otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nvmectl", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // a parse error is reported as one line below
	ssds := fs.Int("ssds", 64, "number of SSDs in the array")
	seed := fs.Uint64("seed", 1, "simulation seed")
	cfgName := fs.String("config", "irq", "kernel config: default|chrt|isolcpus|irq|expfw")
	dev := fs.Int("dev", -1, "target device index")

	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	cmd := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			usage(stderr)
			fs.SetOutput(stderr)
			fs.PrintDefaults()
			return 0
		}
		fmt.Fprintln(stderr, "nvmectl:", err)
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "nvmectl: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	cfg, err := resolve(cmd, *cfgName, *ssds, *dev)
	if err != nil {
		fmt.Fprintln(stderr, "nvmectl:", err)
		return 2
	}

	sys := core.NewSystem(core.Options{NumSSDs: *ssds, Seed: *seed, Config: cfg})

	switch cmd {
	case "list":
		if err := list(stdout, sys); err != nil {
			fmt.Fprintln(stderr, "nvmectl:", err)
			return 1
		}
	case "id-ctrl":
		idCtrl(stdout, sys, *dev)
	case "smart-log":
		smartLog(stdout, sys, *dev)
	case "format":
		format(stdout, sys, *dev)
	case "profile":
		profile(stdout, sys, *dev)
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: nvmectl <list|id-ctrl|smart-log|format|profile> [flags]")
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

func list(w io.Writer, sys *core.System) error {
	fmt.Fprintf(w, "%-12s %-16s %-14s %10s %8s\n", "Node", "Model", "Serial", "Capacity", "FW")
	for i, d := range sys.SSDs {
		var id nvme.IdentifyController
		got := false
		d.Identify(func(x nvme.IdentifyController) { id = x; got = true })
		sys.Eng.RunUntil(sys.Eng.Now().Add(sim.Millisecond))
		if !got {
			return fmt.Errorf("identify of nvme%d timed out", i)
		}
		fmt.Fprintf(w, "/dev/nvme%-3d %-16s %-14s %7dGB %8s\n",
			i, id.ModelNumber, id.SerialNumber, id.TotalCapacityGB, id.FirmwareRev)
	}
	return nil
}

func idCtrl(w io.Writer, sys *core.System, dev int) {
	sys.SSDs[dev].Identify(func(id nvme.IdentifyController) {
		fmt.Fprintf(w, "mn        : %s\n", id.ModelNumber)
		fmt.Fprintf(w, "sn        : %s\n", id.SerialNumber)
		fmt.Fprintf(w, "fr        : %s\n", id.FirmwareRev)
		fmt.Fprintf(w, "tnvmcap   : %d GB\n", id.TotalCapacityGB)
		fmt.Fprintf(w, "nn        : %d\n", id.NumNamespaces)
		fmt.Fprintf(w, "mdts      : %d KiB\n", id.MaxTransferBytes/1024)
	})
	sys.Eng.RunUntil(sys.Eng.Now().Add(sim.Millisecond))
}

func smartLog(w io.Writer, sys *core.System, dev int) {
	// Put some traffic on the device first so the counters mean something.
	sys.SSDs[dev].SubmitTo(nvme.Command{Op: nvme.OpRead, LBA: 1}, nvme.ReceiverFunc(func(*nvme.Result) {}))
	sys.Eng.RunUntil(sys.Eng.Now().Add(sim.Millisecond))
	sys.SSDs[dev].GetLogPage(func(log nvme.SMARTLog) {
		fmt.Fprintf(w, "Smart Log for NVME device nvme%d\n", dev)
		fmt.Fprintf(w, "power_on_ios            : %d\n", log.PowerOnIOs)
		fmt.Fprintf(w, "smart_windows           : %d\n", log.SMARTWindows)
		fmt.Fprintf(w, "ios_blocked_by_smart    : %d\n", log.MediaBlocked)
		fmt.Fprintf(w, "firmware_build          : %s\n", log.FirmwareBuild)
	})
	sys.Eng.RunUntil(sys.Eng.Now().Add(sim.Millisecond))
}

func format(w io.Writer, sys *core.System, dev int) {
	done := false
	sys.SSDs[dev].Format(func() { done = true })
	for !done {
		sys.Eng.RunUntil(sys.Eng.Now().Add(100 * sim.Millisecond))
	}
	fmt.Fprintf(w, "Success formatting namespace 1 of /dev/nvme%d (device is FOB)\n", dev)
}

func profile(w io.Writer, sys *core.System, dev int) {
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
		fmt.Fprintf(w, "nvme%-3d %s\n", i, r.Ladder.String())
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
