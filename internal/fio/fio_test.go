package fio

import (
	"strings"
	"testing"

	"repro/internal/irq"
	"repro/internal/kernel"
	"repro/internal/nand"
	"repro/internal/nvme"
	"repro/internal/pcie"
	"repro/internal/sched"
	"repro/internal/sim"
)

type rig struct {
	eng *sim.Engine
	k   *kernel.Kernel
}

func newRig(t *testing.T, ncpu, nssd int, mode kernel.CompletionMode, fwKind nvme.FirmwareKind) *rig {
	t.Helper()
	eng := sim.NewEngine()
	sch := sched.New(eng, sched.Config{NumCPUs: ncpu, Seed: 5,
		Boot: sched.BootOptions{IdlePoll: true}})
	fab := pcie.NewFabric(eng, pcie.Options{NumSSDs: nssd})
	fw := nvme.DefaultFirmware()
	fw.Kind = fwKind
	var ssds []*nvme.Controller
	for i := 0; i < nssd; i++ {
		ssds = append(ssds, nvme.New(eng, nvme.Config{
			ID: i, Fabric: fab, FW: fw, Seed: 5, Geom: nand.TinyGeometry()}))
	}
	ic := irq.New(eng, sch, irq.Config{NumSSDs: nssd, NumCPUs: ncpu, Seed: 5})
	k := kernel.New(eng, kernel.Config{Sched: sch, IRQ: ic, SSDs: ssds, Mode: mode, Seed: 5})
	return &rig{eng: eng, k: k}
}

// newRigBalanced is newRig with the IRQ balancer active and vectors
// scattered, like a stock boot.
func newRigBalanced(t *testing.T, ncpu, nssd int) *rig {
	t.Helper()
	eng := sim.NewEngine()
	sch := sched.New(eng, sched.Config{NumCPUs: ncpu, Seed: 5,
		Boot: sched.BootOptions{IdlePoll: true}})
	fab := pcie.NewFabric(eng, pcie.Options{NumSSDs: nssd})
	fw := nvme.DefaultFirmware()
	fw.Kind = nvme.FirmwareNoSMART
	var ssds []*nvme.Controller
	for i := 0; i < nssd; i++ {
		ssds = append(ssds, nvme.New(eng, nvme.Config{
			ID: i, Fabric: fab, FW: fw, Seed: 5, Geom: nand.TinyGeometry()}))
	}
	ic := irq.New(eng, sch, irq.Config{NumSSDs: nssd, NumCPUs: ncpu, Seed: 5, StartBalanced: true})
	k := kernel.New(eng, kernel.Config{Sched: sch, IRQ: ic, SSDs: ssds, Seed: 5})
	return &rig{eng: eng, k: k}
}

func TestRandReadQD1Baseline(t *testing.T) {
	r := newRig(t, 2, 1, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)
	res := RunGroup(r.eng, r.k, []JobSpec{{
		SSD: 0, RW: RandRead, Runtime: 500 * sim.Millisecond, CPUsAllowed: []int{1}, Seed: 1,
	}})[0]
	if res.IOs < 10000 {
		t.Fatalf("only %d IOs in 500ms", res.IOs)
	}
	// QD1 4KiB randread over the fabric: ≈30µs device + host path ≈ 33-38µs.
	if res.Ladder.Avg < 28e3 || res.Ladder.Avg > 45e3 {
		t.Fatalf("avg clat = %.1fµs, want ≈33-38µs", res.Ladder.Avg/1e3)
	}
	iops := res.IOPS()
	if iops < 22000 || iops > 36000 {
		t.Fatalf("IOPS = %.0f, want ≈28k (1/36µs)", iops)
	}
	if res.Ladder.Max > 200e3 {
		t.Fatalf("max clat = %dµs on a quiet system", res.Ladder.Max/1000)
	}
}

func TestThreadIsPinned(t *testing.T) {
	r := newRig(t, 4, 1, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)
	j := New(r.eng, r.k, JobSpec{SSD: 0, RW: RandRead, Runtime: 50 * sim.Millisecond,
		CPUsAllowed: []int{2}, Seed: 1})
	var done *Result
	j.Start(func(res *Result) { done = res })
	r.eng.RunUntil(sim.Time(sim.Second))
	if done == nil {
		t.Fatal("job never finished")
	}
	if j.Task().CPU() != 2 {
		t.Fatalf("thread ran on cpu %d, pinned to 2", j.Task().CPU())
	}
}

func TestSMARTBlockedCounted(t *testing.T) {
	r := newRig(t, 2, 1, kernel.CompleteInterrupt, nvme.FirmwareStandard)
	res := RunGroup(r.eng, r.k, []JobSpec{{
		SSD: 0, RW: RandRead, Runtime: 60 * sim.Second, CPUsAllowed: []int{1}, Seed: 1,
	}})[0]
	if res.SMARTBlocked == 0 {
		t.Fatal("no I/O hit a SMART window in 60s of standard firmware")
	}
	if res.Ladder.Max < 400e3 {
		t.Fatalf("max clat = %.0fµs; SMART spike should push ≈600µs", float64(res.Ladder.Max)/1e3)
	}
}

func TestLatLogRecordsSamples(t *testing.T) {
	r := newRig(t, 2, 1, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)
	res := RunGroup(r.eng, r.k, []JobSpec{{
		SSD: 0, RW: RandRead, Runtime: 100 * sim.Millisecond, CPUsAllowed: []int{1},
		LatLog: true, Seed: 1,
	}})[0]
	if res.Log == nil || int64(len(res.Log.Samples())) != res.IOs {
		t.Fatalf("latency log has %d samples for %d IOs", len(res.Log.Samples()), res.IOs)
	}
	for i := 1; i < len(res.Log.Samples()); i++ {
		if res.Log.Samples()[i].At < res.Log.Samples()[i-1].At {
			t.Fatal("latency log out of order")
		}
	}
}

func TestLatLogCostsThroughput(t *testing.T) {
	base := newRig(t, 2, 1, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)
	logged := newRig(t, 2, 1, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)
	spec := JobSpec{SSD: 0, RW: RandRead, Runtime: 300 * sim.Millisecond, CPUsAllowed: []int{1}, Seed: 1}
	r1 := RunGroup(base.eng, base.k, []JobSpec{spec})[0]
	spec.LatLog = true
	r2 := RunGroup(logged.eng, logged.k, []JobSpec{spec})[0]
	if r2.Ladder.Avg <= r1.Ladder.Avg {
		t.Fatalf("logging did not cost anything: %.0f vs %.0f ns", r1.Ladder.Avg, r2.Ladder.Avg)
	}
}

func TestSeqReadSaturates(t *testing.T) {
	r := newRig(t, 4, 2, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)
	res := RunGroup(r.eng, r.k, []JobSpec{{
		SSD: 0, RW: SeqRead, BS: 128 << 10, IODepth: 8,
		Runtime: 200 * sim.Millisecond, CPUsAllowed: []int{1}, Seed: 1,
	}})[0]
	mbps := float64(res.IOs) * float64(128<<10) / res.Runtime.Seconds() / 1e6
	// Table I: 1700 MB/s sequential read per device; the x4 link allows
	// ~3.9 GB/s, so the device NAND bound (~1.6-2 GB/s modeled) governs.
	if mbps < 1000 {
		t.Fatalf("seq read = %.0f MB/s, want >1 GB/s", mbps)
	}
}

func TestRandWriteRateMatchesSpec(t *testing.T) {
	r := newRig(t, 2, 1, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)
	// Short enough that the FOB fill stays within the tiny device's
	// capacity: the Table I rate limit, not GC backpressure, governs.
	res := RunGroup(r.eng, r.k, []JobSpec{{
		SSD: 0, RW: RandWrite, Runtime: 80 * sim.Millisecond, CPUsAllowed: []int{1},
		IODepth: 16, Seed: 1,
	}})[0]
	if iops := res.IOPS(); iops > 33000 || iops < 20000 {
		t.Fatalf("randwrite IOPS = %.0f, want ≈30k (Table I)", iops)
	}
}

func TestPollingModeLowerLatency(t *testing.T) {
	ir := newRig(t, 2, 1, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)
	pr := newRig(t, 2, 1, kernel.CompletePolling, nvme.FirmwareNoSMART)
	spec := JobSpec{SSD: 0, RW: RandRead, Runtime: 200 * sim.Millisecond, CPUsAllowed: []int{1}, Seed: 1}
	ri := RunGroup(ir.eng, ir.k, []JobSpec{spec})[0]
	rp := RunGroup(pr.eng, pr.k, []JobSpec{spec})[0]
	if rp.Ladder.Avg >= ri.Ladder.Avg {
		t.Fatalf("polling avg %.0fns not better than interrupt %.0fns", rp.Ladder.Avg, ri.Ladder.Avg)
	}
	// ... but the polling CPU is pegged (the Section V throughput caveat).
	busy := pr.k.Sched.CPU(1).BusyTime()
	if busy < 150*sim.Millisecond {
		t.Fatalf("polling thread used only %v CPU in 200ms", busy)
	}
}

func TestQD1NeverOverlaps(t *testing.T) {
	r := newRig(t, 2, 1, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)
	res := RunGroup(r.eng, r.k, []JobSpec{{
		SSD: 0, RW: RandRead, Runtime: 100 * sim.Millisecond, CPUsAllowed: []int{1},
		LatLog: true, Seed: 1,
	}})[0]
	s := res.Log.Samples()
	for i := 1; i < len(s); i++ {
		// Next completion must be at least a device service time after the
		// previous one — QD1 admits no pipelining.
		if s[i].At-s[i-1].At < 20_000 {
			t.Fatalf("completions %d and %d only %dns apart at QD1", i-1, i, s[i].At-s[i-1].At)
		}
	}
}

func TestReportFormat(t *testing.T) {
	r := newRig(t, 2, 1, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)
	res := RunGroup(r.eng, r.k, []JobSpec{{
		SSD: 0, RW: RandRead, Runtime: 50 * sim.Millisecond, CPUsAllowed: []int{1}, Seed: 1,
	}})[0]
	rep := res.Report()
	for _, want := range []string{"rw=randread", "iodepth=1", "clat percentiles", "99.9999", "max"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestRunGroupMultipleSSDs(t *testing.T) {
	r := newRig(t, 4, 2, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)
	specs := []JobSpec{
		{SSD: 0, RW: RandRead, Runtime: 100 * sim.Millisecond, CPUsAllowed: []int{1}, Seed: 1},
		{SSD: 1, RW: RandRead, Runtime: 100 * sim.Millisecond, CPUsAllowed: []int{2}, Seed: 2},
	}
	results := RunGroup(r.eng, r.k, specs)
	if len(results) != 2 {
		t.Fatal("missing results")
	}
	for i, res := range results {
		if res == nil || res.IOs == 0 {
			t.Fatalf("job %d produced nothing", i)
		}
		if res.Spec.SSD != i {
			t.Fatalf("result order scrambled")
		}
	}
}

func TestChrtJobUsesFIFO(t *testing.T) {
	r := newRig(t, 2, 1, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)
	j := New(r.eng, r.k, JobSpec{SSD: 0, RW: RandRead, Runtime: 10 * sim.Millisecond,
		CPUsAllowed: []int{1}, Class: sched.ClassFIFO, RTPrio: 99, Seed: 1})
	if j.Task().Class() != sched.ClassFIFO {
		t.Fatal("chrt class not applied")
	}
}
