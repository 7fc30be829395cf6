package nvme

import (
	"testing"

	"repro/internal/nand"
	"repro/internal/pcie"
	"repro/internal/sim"
)

func newSSD(t *testing.T, fw Firmware) (*sim.Engine, *Controller) {
	t.Helper()
	eng := sim.NewEngine()
	fab := pcie.NewFabric(eng, pcie.Options{NumSSDs: 1})
	c := New(eng, Config{ID: 0, Fabric: fab, FW: fw, Seed: 7,
		Geom: nand.TinyGeometry()})
	return eng, c
}

func noSMART() Firmware {
	fw := DefaultFirmware()
	fw.Kind = FirmwareNoSMART
	return fw
}

func TestSpecTableI(t *testing.T) {
	s := SpecTableI()
	if s.CapacityGB != 960 {
		t.Fatalf("capacity = %d", s.CapacityGB)
	}
	if s.RandReadIOPS != 160000 || s.RandWriteIOPS != 30000 {
		t.Fatalf("IOPS = %d/%d", s.RandReadIOPS, s.RandWriteIOPS)
	}
	if s.SeqReadMBps != 1700 || s.SeqWriteMBps != 750 {
		t.Fatalf("seq = %d/%d", s.SeqReadMBps, s.SeqWriteMBps)
	}
	if s.NANDType != "3D MLC NAND" || s.HostInterface != "NVMe 1.2 - PCIe 3.0 x4" {
		t.Fatalf("spec strings wrong: %+v", s)
	}
	if s.DesignReadLat != 25*sim.Microsecond || s.SwitchedReadLat != 30*sim.Microsecond {
		t.Fatalf("latency spec wrong: %+v", s)
	}
}

func TestReadLatencyMatchesSwitchedSpec(t *testing.T) {
	eng, c := newSSD(t, noSMART())
	var sum sim.Duration
	const n = 500
	doneCount := 0
	var issue func(i int)
	issue = func(i int) {
		if i == n {
			return
		}
		c.Submit(Command{Op: OpRead, LBA: int64(i * 97), Queue: 0}, func(r Result) {
			sum += r.CompletedAt.Sub(r.SubmittedAt)
			doneCount++
			issue(i + 1)
		})
	}
	issue(0)
	eng.RunUntil(sim.Time(sim.Second))
	if doneCount != n {
		t.Fatalf("completed %d/%d", doneCount, n)
	}
	avg := sum / n
	// Device design: 25µs standalone + 5µs switch fabric ≈ 30µs at the
	// host edge (before host software).
	if avg < 26*sim.Microsecond || avg > 33*sim.Microsecond {
		t.Fatalf("avg switched read = %v, want ≈30µs", avg)
	}
}

func TestSMARTWindowBlocksReads(t *testing.T) {
	eng, c := newSSD(t, DefaultFirmware())
	// Step in 100 µs increments until we are *inside* a SMART window, then
	// issue a read.
	for eng.Now() < sim.Time(60*sim.Second) && c.blockedUntil <= eng.Now() {
		eng.RunUntil(eng.Now().Add(100 * sim.Microsecond))
	}
	if c.blockedUntil <= eng.Now() {
		t.Fatal("never caught a SMART window within 60s")
	}
	var res Result
	got := false
	c.Submit(Command{Op: OpRead, LBA: 1}, func(r Result) { res = r; got = true })
	eng.RunUntil(eng.Now().Add(5 * sim.Millisecond))
	if !got {
		t.Fatal("read never completed")
	}
	if !res.BlockedBySMART {
		t.Fatal("read during SMART window not marked blocked")
	}
	lat := res.CompletedAt.Sub(res.SubmittedAt)
	if lat < 100*sim.Microsecond {
		t.Fatalf("read during SMART window took only %v", lat)
	}
	if lat > 620*sim.Microsecond {
		t.Fatalf("read during SMART window took %v, window is 550µs", lat)
	}
}

func TestNoSMARTFirmwareNeverBlocks(t *testing.T) {
	eng, c := newSSD(t, noSMART())
	worst := sim.Duration(0)
	n := 0
	var issue func()
	issue = func() {
		c.Submit(Command{Op: OpRead, LBA: int64(n)}, func(r Result) {
			if l := r.CompletedAt.Sub(r.SubmittedAt); l > worst {
				worst = l
			}
			if r.BlockedBySMART {
				t.Error("BlockedBySMART with FirmwareNoSMART")
			}
			n++
			if n < 2000 {
				eng.Schedule(30*sim.Microsecond, issue)
			}
		})
	}
	issue()
	eng.RunUntil(sim.Time(130 * sim.Second))
	if n != 2000 {
		t.Fatalf("completed %d", n)
	}
	if c.Stats().SMARTWindows != 0 {
		t.Fatal("SMART windows ran with FirmwareNoSMART")
	}
	if worst > 40*sim.Microsecond {
		t.Fatalf("worst read = %v without SMART, want ≈30µs", worst)
	}
}

func TestIncrementalFirmwareTinyStalls(t *testing.T) {
	fw := DefaultFirmware()
	fw.Kind = FirmwareIncremental
	eng, c := newSSD(t, fw)
	worst := sim.Duration(0)
	n := 0
	var issue func()
	issue = func() {
		c.Submit(Command{Op: OpRead, LBA: int64(n)}, func(r Result) {
			if l := r.CompletedAt.Sub(r.SubmittedAt); l > worst {
				worst = l
			}
			n++
			if n < 100000 {
				eng.Schedule(30*sim.Microsecond, issue)
			}
		})
	}
	issue()
	eng.RunUntil(sim.Time(10 * sim.Second))
	// Worst stall bounded by the 5µs slice, not the 550µs window.
	if worst > 40*sim.Microsecond {
		t.Fatalf("incremental firmware worst = %v, want ≤ read+slice", worst)
	}
}

func TestSMARTPhaseDiffersAcrossSSDs(t *testing.T) {
	eng := sim.NewEngine()
	fab := pcie.NewFabric(eng, pcie.Options{NumSSDs: 2})
	a := New(eng, Config{ID: 0, Fabric: fab, Seed: 7, Geom: nand.TinyGeometry()})
	b := New(eng, Config{ID: 1, Fabric: fab, Seed: 7, Geom: nand.TinyGeometry()})
	var firstA, firstB sim.Time
	for eng.Now() < sim.Time(120*sim.Second) {
		eng.RunUntil(eng.Now().Add(sim.Millisecond))
		if firstA == 0 && a.Stats().SMARTWindows > 0 {
			firstA = eng.Now()
		}
		if firstB == 0 && b.Stats().SMARTWindows > 0 {
			firstB = eng.Now()
		}
		if firstA != 0 && firstB != 0 {
			break
		}
	}
	if firstA == 0 || firstB == 0 {
		t.Fatal("SMART windows missing")
	}
	diff := firstA.Sub(firstB)
	if diff < 0 {
		diff = -diff
	}
	if diff < 10*sim.Millisecond {
		t.Fatalf("SSD SMART phases nearly aligned (%v apart)", diff)
	}
}

func TestWriteRateLimitedToSpec(t *testing.T) {
	eng, c := newSSD(t, noSMART())
	const n = 3000
	var last sim.Time
	done := 0
	var issue func(i int)
	issue = func(i int) {
		if i == n {
			return
		}
		// Unique LBAs within capacity: a FOB fill, so the spec rate limit
		// (not GC backpressure) governs.
		c.Submit(Command{Op: OpWrite, LBA: int64(i)}, func(r Result) {
			last = r.CompletedAt
			done++
			issue(i + 1)
		})
	}
	issue(0)
	eng.RunUntil(sim.Time(sim.Second))
	if done != n {
		t.Fatalf("completed %d/%d", done, n)
	}
	iops := float64(n) / last.Seconds()
	if iops > 33000 {
		t.Fatalf("sustained write IOPS = %.0f exceeds Table I's 30k", iops)
	}
	if iops < 25000 {
		t.Fatalf("sustained write IOPS = %.0f far below spec", iops)
	}
}

func TestFormatRestoresFOB(t *testing.T) {
	eng, c := newSSD(t, noSMART())
	for i := 0; i < 10; i++ {
		c.Submit(Command{Op: OpWrite, LBA: int64(i)}, func(Result) {})
	}
	eng.RunUntil(sim.Time(100 * sim.Millisecond))
	if c.Flash.FOB() {
		t.Fatal("device FOB despite writes")
	}
	formatted := false
	c.Format(func() { formatted = true })
	eng.RunUntil(eng.Now().Add(sim.Second))
	if !formatted {
		t.Fatal("format callback missing")
	}
	if !c.Flash.FOB() {
		t.Fatal("device not FOB after format")
	}
	if c.Stats().Formats != 1 {
		t.Fatal("format not counted")
	}
}

func TestFlushCompletes(t *testing.T) {
	eng, c := newSSD(t, noSMART())
	ok := false
	c.Submit(Command{Op: OpFlush}, func(r Result) { ok = true })
	eng.RunUntil(sim.Time(sim.Millisecond))
	if !ok {
		t.Fatal("flush never completed")
	}
	if c.Stats().Flushes != 1 {
		t.Fatal("flush not counted")
	}
}

func TestGetLogPage(t *testing.T) {
	eng, c := newSSD(t, DefaultFirmware())
	c.Submit(Command{Op: OpRead, LBA: 5}, func(Result) {})
	eng.RunUntil(sim.Time(60 * sim.Second))
	var log SMARTLog
	got := false
	c.GetLogPage(func(l SMARTLog) { log = l; got = true })
	eng.RunUntil(eng.Now().Add(sim.Millisecond))
	if !got {
		t.Fatal("log page never returned")
	}
	if log.PowerOnIOs != 1 {
		t.Fatalf("PowerOnIOs = %d", log.PowerOnIOs)
	}
	if log.SMARTWindows == 0 {
		t.Fatal("no SMART windows after 60s of standard firmware")
	}
	if log.FirmwareBuild != "standard" {
		t.Fatalf("build = %q", log.FirmwareBuild)
	}
}

func TestSetFirmwareSwitchesBehaviour(t *testing.T) {
	eng, c := newSSD(t, DefaultFirmware())
	eng.RunUntil(sim.Time(120 * sim.Second))
	before := c.Stats().SMARTWindows
	if before == 0 {
		t.Fatal("standard firmware never ran SMART")
	}
	c.SetFirmware(noSMART())
	eng.RunUntil(sim.Time(360 * sim.Second))
	if c.Stats().SMARTWindows != before {
		t.Fatal("SMART still running after reflash to experimental firmware")
	}
}

func TestUnknownOpcodePanics(t *testing.T) {
	eng, c := newSSD(t, noSMART())
	c.Submit(Command{Op: Opcode(99)}, func(Result) {})
	defer func() {
		if recover() == nil {
			t.Fatal("unknown opcode did not panic")
		}
	}()
	eng.RunUntil(sim.Time(sim.Millisecond))
}

// TestAdminCommandsShareOneQueue: admin commands in flight together each
// complete once, at their own instant — out of submission order, and in
// submission order when due at the same instant — and once the
// admin queue is warm a log-page read allocates nothing.
func TestAdminCommandsShareOneQueue(t *testing.T) {
	eng, c := newSSD(t, noSMART())
	var order []string
	var at []sim.Time
	note := func(name string) {
		order = append(order, name)
		at = append(at, eng.Now())
	}
	c.Format(func() { note("format-1") })
	c.Identify(func(id IdentifyController) { note("identify " + id.SerialNumber) })
	c.GetLogPage(func(SMARTLog) { note("log-1") })
	c.Format(nil)
	c.GetLogPage(func(SMARTLog) { note("log-2") })
	c.Format(func() { note("format-2") })
	eng.RunUntil(sim.Time(sim.Second))
	want := []string{"identify S4FANX0M000000", "log-1", "log-2", "format-1", "format-2"}
	if len(order) != len(want) {
		t.Fatalf("completions %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completions %v, want %v", order, want)
		}
	}
	if at[0] == 0 || at[1] <= at[0] || at[2] <= at[1] ||
		at[3] != sim.Time(200*sim.Millisecond) || at[4] != at[3] {
		t.Fatalf("completion instants %v", at)
	}
	if len(c.admin) != 0 || c.Stats().Formats != 3 {
		t.Fatalf("%d admin commands left queued, %d formats counted; want 0 and 3",
			len(c.admin), c.Stats().Formats)
	}

	onLog := func(SMARTLog) {}
	logPage := func() {
		c.GetLogPage(onLog)
		eng.RunUntil(eng.Now().Add(sim.Millisecond))
	}
	logPage()
	if avg := testing.AllocsPerRun(50, logPage); avg > 0 {
		t.Fatalf("GetLogPage allocates %.2f per call once warm, want 0", avg)
	}
}
