package kernel

import (
	"testing"

	"repro/internal/irq"
	"repro/internal/nand"
	"repro/internal/nvme"
	"repro/internal/pcie"
	"repro/internal/sched"
	"repro/internal/sim"
)

type rig struct {
	eng *sim.Engine
	sch *sched.Scheduler
	k   *Kernel
}

func newRig(t *testing.T, ncpu, nssd int, boot sched.BootOptions, mode CompletionMode) *rig {
	t.Helper()
	eng := sim.NewEngine()
	sch := sched.New(eng, sched.Config{NumCPUs: ncpu, Boot: boot, Seed: 3})
	fab := pcie.NewFabric(eng, pcie.Options{NumSSDs: nssd})
	var ssds []*nvme.Controller
	fw := nvme.DefaultFirmware()
	fw.Kind = nvme.FirmwareNoSMART
	for i := 0; i < nssd; i++ {
		ssds = append(ssds, nvme.New(eng, nvme.Config{
			ID: i, Fabric: fab, FW: fw, Seed: 3, Geom: nand.TinyGeometry()}))
	}
	ic := irq.New(eng, sch, irq.Config{NumSSDs: nssd, NumCPUs: ncpu, Seed: 3})
	k := New(eng, Config{Sched: sch, IRQ: ic, SSDs: ssds, Mode: mode, Seed: 3})
	return &rig{eng: eng, sch: sch, k: k}
}

func TestSubmitIORoundTrip(t *testing.T) {
	r := newRig(t, 2, 1, sched.BootOptions{}, CompleteInterrupt)
	var comp Completion
	got := false
	r.k.SubmitIO(1, 0, nvme.Command{Op: nvme.OpRead, LBA: 9}, func(c Completion) {
		comp = c
		got = true
	})
	r.eng.RunUntil(sim.Time(sim.Millisecond))
	if !got {
		t.Fatal("completion never arrived")
	}
	lat := comp.Result.CompletedAt.Sub(comp.Result.SubmittedAt)
	if lat < 25*sim.Microsecond || lat > 40*sim.Microsecond {
		t.Fatalf("device-level latency = %v, want ≈30µs", lat)
	}
	if comp.Delivery.SSD != 0 || comp.Delivery.Queue != 1 {
		t.Fatalf("delivery = %+v", comp.Delivery)
	}
	if !comp.Delivery.Remote && comp.WakePenalty != 0 {
		t.Fatal("local delivery carries a penalty")
	}
}

func TestSubmitIOPollingSkipsIRQ(t *testing.T) {
	r := newRig(t, 2, 1, sched.BootOptions{}, CompletePolling)
	var comp Completion
	r.k.SubmitIO(1, 0, nvme.Command{Op: nvme.OpRead, LBA: 9}, func(c Completion) { comp = c })
	r.eng.RunUntil(sim.Time(sim.Millisecond))
	if comp.Delivery.Remote || comp.WakePenalty != 0 {
		t.Fatalf("polling completion has irq artifacts: %+v", comp)
	}
	local, remote, _ := r.k.IRQ.Stats()
	if local+remote != 0 {
		t.Fatal("polling mode delivered through the IRQ controller")
	}
}

func TestSubmitIOBadSSDPanics(t *testing.T) {
	r := newRig(t, 1, 1, sched.BootOptions{}, CompleteInterrupt)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.k.SubmitIO(0, 5, nvme.Command{Op: nvme.OpRead}, func(Completion) {})
}

func TestDaemonsRunSessions(t *testing.T) {
	r := newRig(t, 4, 1, sched.BootOptions{}, CompleteInterrupt)
	r.k.StartDaemons(DefaultDaemons())
	r.eng.RunUntil(sim.Time(10 * sim.Second))
	total := int64(0)
	for _, d := range r.k.Daemons() {
		total += d.Sessions()
	}
	if total < 20 {
		t.Fatalf("daemon sessions = %d in 10s, want dozens", total)
	}
	if st := r.sch.TotalStats(); st.BusyTime < 50*sim.Millisecond {
		t.Fatalf("daemons consumed only %v CPU in 10s", st.BusyTime)
	}
}

func TestDaemonsAvoidIsolatedCPUs(t *testing.T) {
	boot := sched.BootOptions{Isolcpus: []int{2, 3}}
	r := newRig(t, 4, 1, boot, CompleteInterrupt)
	r.k.StartDaemons(DefaultDaemons())
	r.eng.RunUntil(sim.Time(20 * sim.Second))
	if b := r.sch.CPU(2).BusyTime() + r.sch.CPU(3).BusyTime(); b != 0 {
		t.Fatalf("daemons ran %v on isolated CPUs", b)
	}
}

func TestDaemonStop(t *testing.T) {
	r := newRig(t, 2, 1, sched.BootOptions{}, CompleteInterrupt)
	r.k.StartDaemons(DefaultDaemons()[:1])
	r.eng.RunUntil(sim.Time(10 * sim.Second))
	d := r.k.Daemons()[0]
	n := d.Sessions()
	if n == 0 {
		t.Fatal("daemon never ran")
	}
	d.Stop()
	r.eng.RunUntil(sim.Time(30 * sim.Second))
	if d.Sessions() > n+1 {
		t.Fatalf("stopped daemon kept running: %d → %d", n, d.Sessions())
	}
}

func TestTickWorkRespectsRCUNocbs(t *testing.T) {
	// Sample many tick costs: CPUs with RCU offloaded must never see the
	// big RCU batches.
	r := newRig(t, 2, 1, sched.BootOptions{RCUNocbs: []int{1}}, CompleteInterrupt)
	var worst0, worst1 sim.Duration
	for i := 0; i < 20000; i++ {
		if d := r.k.tickWork(0); d > worst0 {
			worst0 = d
		}
		if d := r.k.tickWork(1); d > worst1 {
			worst1 = d
		}
	}
	if worst0 < 40*sim.Microsecond {
		t.Fatalf("non-offloaded CPU worst tick = %v, want RCU batches ≥40µs", worst0)
	}
	if worst1 > 40*sim.Microsecond {
		t.Fatalf("rcu_nocbs CPU worst tick = %v, want < 40µs", worst1)
	}
}

func TestRemoteIRQChargesWakePenalty(t *testing.T) {
	r := newRig(t, 4, 1, sched.BootOptions{}, CompleteInterrupt)
	// Force the vector for queue 1 to a remote CPU.
	r.k.IRQ.Pin(0, 1) // first pin to make deterministic...
	// Deliver directly with a scrambled table instead: use a fresh
	// controller with StartBalanced.
	ic := irq.New(r.eng, r.sch, irq.Config{NumSSDs: 1, NumCPUs: 4, Seed: 99, StartBalanced: true})
	k2 := New(r.eng, Config{Sched: r.sch, IRQ: ic, SSDs: r.k.SSDs, Seed: 9})
	var comp Completion
	k2.SubmitIO(1, 0, nvme.Command{Op: nvme.OpRead, LBA: 3}, func(c Completion) { comp = c })
	r.eng.RunUntil(sim.Time(sim.Millisecond))
	if comp.Delivery.Remote && comp.WakePenalty == 0 {
		t.Fatal("remote delivery without wake penalty")
	}
}

func TestDefaultDaemonPopulationShape(t *testing.T) {
	specs := DefaultDaemons()
	if len(specs) < 6 {
		t.Fatalf("only %d daemons; the testbed had many more background processes", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		names[s.Name] = true
		if s.SleepMean <= 0 || s.BurstMean <= 0 || s.BurstsPerSession <= 0 {
			t.Fatalf("bad spec %+v", s)
		}
	}
	// The paper names these two explicitly.
	if !names["llvmpipe"] || !names["lttng-consumerd"] {
		t.Fatal("missing the paper's named daemons")
	}
}
