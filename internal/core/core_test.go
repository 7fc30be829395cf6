package core

import (
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/nvme"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Test runs use 16 SSDs and short runtimes to stay fast; the assertions
// check orderings and mechanisms, not absolute values.
func testOpts() ExpOptions {
	return ExpOptions{Runtime: 500 * sim.Millisecond, Seed: 7, NumSSDs: 16, SoloRuns: 2}
}

func TestConfigPresets(t *testing.T) {
	d := Default()
	if d.Name != "default" || d.FIOClass != sched.ClassCFS || d.Isolate || d.PinIRQs {
		t.Fatalf("default = %+v", d)
	}
	c := CHRT()
	if c.FIOClass != sched.ClassFIFO || c.FIORTPrio != 99 {
		t.Fatalf("chrt = %+v", c)
	}
	i := Isolcpus()
	if !i.Isolate || i.FIOClass != sched.ClassFIFO {
		t.Fatalf("isolcpus = %+v", i)
	}
	q := IRQAffinity()
	if !q.PinIRQs || !q.Isolate {
		t.Fatalf("irq = %+v", q)
	}
	e := ExpFirmware()
	if e.Firmware != nvme.FirmwareNoSMART || !e.PinIRQs {
		t.Fatalf("expfw = %+v", e)
	}
	if len(AllKernelConfigs()) != 4 {
		t.Fatal("Fig 12 compares four configurations")
	}
}

func TestNewSystemWiring(t *testing.T) {
	sys := NewSystem(Options{NumSSDs: 8, Seed: 1, Config: IRQAffinity()})
	if len(sys.SSDs) != 8 {
		t.Fatalf("ssds = %d", len(sys.SSDs))
	}
	if sys.Sched.NumCPUs() != 40 {
		t.Fatalf("cpus = %d", sys.Sched.NumCPUs())
	}
	boot := sys.Sched.Boot()
	if len(boot.Isolcpus) != 32 || !boot.IdlePoll || boot.MaxCState != 1 {
		t.Fatalf("boot = %+v", boot)
	}
	for s := 0; s < 8; s++ {
		for q := 0; q < 40; q++ {
			if sys.IRQ.EffectiveCPU(s, q) != q {
				t.Fatal("vectors not pinned under IRQAffinity")
			}
		}
	}
	if got := sys.BootCmdline(); !strings.Contains(got, "isolcpus=4-19,24-39") ||
		!strings.Contains(got, "idle=poll") {
		t.Fatalf("cmdline = %q", got)
	}
	if sys.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestDefaultSystemHasBalancerAndNoIsolation(t *testing.T) {
	sys := NewSystem(Options{NumSSDs: 4, Seed: 1, Config: Default()})
	if len(sys.Sched.Boot().Isolcpus) != 0 {
		t.Fatal("default config isolated CPUs")
	}
	if sys.BootCmdline() != "" {
		t.Fatal("default config has boot options")
	}
	scattered := 0
	for q := 0; q < 40; q++ {
		if sys.IRQ.EffectiveCPU(0, q) != q {
			scattered++
		}
	}
	if scattered < 30 {
		t.Fatalf("default config vectors not scattered: %d/40", scattered)
	}
}

func TestFormatAll(t *testing.T) {
	sys := NewSystem(Options{NumSSDs: 4, Seed: 1})
	sys.SSDs[2].Flash.Write(1)
	sys.FormatAll()
	for i, d := range sys.SSDs {
		if !d.Flash.FOB() {
			t.Fatalf("ssd %d not FOB after FormatAll", i)
		}
	}
}

func TestRunFIOResultIndexing(t *testing.T) {
	o := testOpts()
	sys := o.newSystem(ExpFirmware())
	res := sys.RunFIO(RunSpec{Runtime: o.Runtime})
	if len(res) != 16 {
		t.Fatalf("results = %d", len(res))
	}
	for i, r := range res {
		if r == nil {
			t.Fatalf("ssd %d missing", i)
		}
		if r.Spec.SSD != i {
			t.Fatal("result order scrambled")
		}
		if r.IOs < 1000 {
			t.Fatalf("ssd %d only %d IOs", i, r.IOs)
		}
	}
}

func TestTuningLadderOrdering(t *testing.T) {
	o := testOpts()
	def := RunFig6(o)
	chrt := RunFig7(o)
	iso := RunFig8(o)
	irq := RunFig9(o)
	exp := RunFig11(o)

	maxRung := 6
	// The default config's worst SSD must show a millisecond-scale CFS
	// stall; chrt bounds everyone near the SMART floor. (The mean-of-max
	// ratio is scale-dependent — at 16 SSDs only some CPUs catch a daemon
	// session — so assert on the robust extremes.)
	if def.Summary.Max[maxRung] < 2e6 {
		t.Fatalf("default worst SSD max=%.0fµs, want ms-scale", def.Summary.Max[maxRung]/1e3)
	}
	if def.Summary.Max[maxRung] < 2*chrt.Summary.Max[maxRung] {
		t.Fatalf("default worst max=%.0f not ≫ chrt worst %.0f",
			def.Summary.Max[maxRung], chrt.Summary.Max[maxRung])
	}
	if def.Summary.Mean[maxRung] < chrt.Summary.Mean[maxRung]*3/2 {
		t.Fatalf("default mean(max)=%.0f not clearly above chrt %.0f",
			def.Summary.Mean[maxRung], chrt.Summary.Mean[maxRung])
	}
	// chrt and isolcpus keep the ~600µs SMART floor.
	for _, d := range []Distribution{chrt, iso, irq} {
		if d.Summary.Mean[maxRung] < 400e3 || d.Summary.Mean[maxRung] > 800e3 {
			t.Fatalf("%s mean(max)=%.0fµs, want the ≈600µs SMART floor",
				d.Config, d.Summary.Mean[maxRung]/1e3)
		}
	}
	// Experimental firmware removes it (paper: ≈600 → ≈90µs).
	if exp.Summary.Mean[maxRung] > 150e3 {
		t.Fatalf("expfw mean(max)=%.0fµs, want ≲100µs", exp.Summary.Mean[maxRung]/1e3)
	}
	// The average itself improves (no remote IPI/cache penalty).
	if irq.Summary.Mean[0] >= iso.Summary.Mean[0] {
		t.Fatalf("irq avg %.0f not better than isolcpus %.0f",
			irq.Summary.Mean[0], iso.Summary.Mean[0])
	}
}

func TestIRQPinningCollapsesCrossSSDSpread(t *testing.T) {
	// The σ(avg) collapse of Fig 12 comes from a few SSDs whose active
	// vector happens to sit locally while the rest pay the remote penalty;
	// resolving it statistically needs the full 64-SSD population.
	o := ExpOptions{Runtime: 200 * sim.Millisecond, Seed: 7, NumSSDs: 64}
	iso := RunFig8(o)
	irq := RunFig9(o)
	if irq.Summary.Std[0] > iso.Summary.Std[0]/2 {
		t.Fatalf("irq σ(avg)=%.0f not ≪ isolcpus σ(avg)=%.0f",
			irq.Summary.Std[0], iso.Summary.Std[0])
	}
}

func TestRunFig10SpikeTrain(t *testing.T) {
	o := testOpts()
	r := RunFig10(o)
	if len(r.Logs) != 8 {
		t.Fatalf("logged %d SSDs, want half of 16", len(r.Logs))
	}
	for i, log := range r.Logs {
		if len(log) == 0 {
			t.Fatalf("ssd %d log empty", i)
		}
	}
	if r.SMARTWindows == 0 {
		t.Fatal("no SMART windows fired")
	}
	if len(r.SpikeClusters) == 0 {
		t.Fatal("no spike clusters detected in the scatter data")
	}
}

func TestRunFig12ReturnsFourConfigs(t *testing.T) {
	o := testOpts()
	o.Runtime = 150 * sim.Millisecond
	ds := RunFig12(o)
	if len(ds) != 4 {
		t.Fatalf("got %d configs", len(ds))
	}
	want := []string{"default", "chrt", "isolcpus", "irq", "expfw"}
	for i, cfg := range append(AllKernelConfigs(), ExpFirmware()) {
		if cfg.Name != want[i] {
			t.Fatalf("config %d is named %s, want %s", i, cfg.Name, want[i])
		}
	}
	for i, d := range ds {
		if d.Config != want[i] {
			t.Fatalf("config[%d] = %s, want %s", i, d.Config, want[i])
		}
		if d.Summary.N != 16 {
			t.Fatalf("config %s summarizes %d SSDs", d.Config, d.Summary.N)
		}
	}
}

func TestTableIIMatchesPaper(t *testing.T) {
	rows := TableII()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].SSDsPerPhysCore != 4 || rows[0].FIOThreadsInSystem != 64 || rows[0].Runs != 1 {
		t.Fatalf("row a = %+v", rows[0])
	}
	if rows[1].SSDsPerPhysCore != 2 || rows[1].FIOThreadsInSystem != 32 || rows[1].Runs != 2 {
		t.Fatalf("row b = %+v", rows[1])
	}
	if rows[2].SSDsPerPhysCore != 1 || rows[2].FIOThreadsInSystem != 16 || rows[2].Runs != 4 {
		t.Fatalf("row c = %+v", rows[2])
	}
	if rows[3].FIOThreadsInSystem != 1 || rows[3].Runs != 64 {
		t.Fatalf("row d = %+v", rows[3])
	}
}

func TestRunFig13Coverage(t *testing.T) {
	o := testOpts()
	o.Runtime = 150 * sim.Millisecond
	o.NumSSDs = 64 // geometries assume the full population
	results := RunFig13(o)
	if len(results) != 4 {
		t.Fatalf("setups = %d", len(results))
	}
	wantLadders := []int{64, 64, 64, 2} // SoloRuns=2 caps row d
	for i, r := range results {
		if len(r.Dist.Ladders) != wantLadders[i] {
			t.Fatalf("setup %s merged %d ladders, want %d",
				r.Row.Fig, len(r.Dist.Ladders), wantLadders[i])
		}
	}
	// The paper's finding: the distributions are similar across setups —
	// medians (avg rung) within ~2x of each other.
	a, d := results[0].Dist.Summary.Mean[0], results[3].Dist.Summary.Mean[0]
	if a > 2*d {
		t.Fatalf("4-SSDs/core avg %.0f ≫ solo avg %.0f; paper found them close", a, d)
	}
}

func TestRunHeadlineImprovement(t *testing.T) {
	o := testOpts()
	h := RunHeadline(o)
	// At test scale (16 SSDs, 500 ms) the improvements are attenuated but
	// must clearly exist; the bench at 64 SSDs and longer runs approaches
	// the paper's ×8 / ×400.
	if h.MeanImprovement() < 1.5 {
		t.Fatalf("mean(max) improvement ×%.1f, want ≥1.5 (paper ×8)", h.MeanImprovement())
	}
	if h.StdImprovement() < 10 {
		t.Fatalf("σ(max) improvement ×%.1f, want ≥10 (paper ×400)", h.StdImprovement())
	}
}

func TestFirmwareAblation(t *testing.T) {
	o := testOpts()
	o.NumSSDs = 8
	ds := RunFirmwareAblation(o)
	if len(ds) != 3 {
		t.Fatalf("got %d variants", len(ds))
	}
	std, none, incr := ds[0], ds[1], ds[2]
	if none.Summary.Mean[6] >= std.Summary.Mean[6]/2 {
		t.Fatalf("nosmart max %.0f not ≪ standard %.0f", none.Summary.Mean[6], std.Summary.Mean[6])
	}
	if incr.Summary.Mean[6] >= std.Summary.Mean[6]/2 {
		t.Fatalf("incremental max %.0f not ≪ standard %.0f", incr.Summary.Mean[6], std.Summary.Mean[6])
	}
}

func TestFutureWorkAblation(t *testing.T) {
	o := testOpts()
	o.Runtime = 400 * sim.Millisecond
	ds := RunFutureWorkAblation(o)
	if len(ds) != 5 {
		t.Fatalf("variants = %d", len(ds))
	}
	names := []string{"default", "auto-sched", "affine-irq", "auto-both", "irq"}
	for i, d := range ds {
		if d.Config != names[i] {
			t.Fatalf("variant[%d] = %s", i, d.Config)
		}
	}
	def, autoSched, affine, both, manual := ds[0], ds[1], ds[2], ds[3], ds[4]
	// The auto-isolating scheduler must remove the scheduler-induced part
	// of the worst case; what remains is bounded by the SMART floor, so at
	// this scale expect a clear reduction rather than a fixed ratio.
	if autoSched.Summary.Mean[6] > def.Summary.Mean[6]*8/10 {
		t.Fatalf("auto-sched mean(max) %.0f not clearly below default %.0f",
			autoSched.Summary.Mean[6], def.Summary.Mean[6])
	}
	// The affinity-aware balancer must recover most of the avg gap.
	if affine.Summary.Mean[0] > (def.Summary.Mean[0]+manual.Summary.Mean[0])/2 {
		t.Fatalf("affine-irq avg %.0f did not close the gap (default %.0f, manual %.0f)",
			affine.Summary.Mean[0], def.Summary.Mean[0], manual.Summary.Mean[0])
	}
	// Both together come close to the hand-tuned kernel.
	if both.Summary.Mean[0] > manual.Summary.Mean[0]*1.15 {
		t.Fatalf("auto-both avg %.0f vs manual %.0f; prototypes should nearly match",
			both.Summary.Mean[0], manual.Summary.Mean[0])
	}
}

func TestCoalescingAblation(t *testing.T) {
	o := testOpts()
	o.NumSSDs = 8
	o.Runtime = 200 * sim.Millisecond
	runs := RunCoalescingAblation(o)
	off, on := runs[0], runs[1]
	if off.IOs == 0 || on.IOs == 0 {
		t.Fatal("no IOs")
	}
	offRate := float64(off.IRQs()) / float64(off.IOs)
	onRate := float64(on.IRQs()) / float64(on.IOs)
	if onRate > offRate/1.5 {
		t.Fatalf("coalescing interrupt rate %.2f/IO vs %.2f/IO; expected a big cut", onRate, offRate)
	}
	// At QD8 coalescing is close to latency-neutral (batch reaping saves
	// about what batching delays); the cost must in any case stay bounded
	// by the coalescing timeout.
	diff := on.Summary.Mean[0] - off.Summary.Mean[0]
	if diff > 150e3 || diff < -150e3 {
		t.Fatalf("coalescing shifted avg by %.0fns; must stay within the timeout bound", diff)
	}
}

func TestNUMACrossSocketCounted(t *testing.T) {
	// Under the default config with scattered vectors, many deliveries
	// land on the other socket and must be counted.
	sys := NewSystem(Options{NumSSDs: 8, Seed: 3, Config: Default()})
	sys.RunFIO(RunSpec{Runtime: 100 * sim.Millisecond})
	if sys.IRQ.CrossSocketDeliveries() == 0 {
		t.Fatal("no cross-socket deliveries under scattered vectors")
	}
	// Pinned vectors never cross.
	sys2 := NewSystem(Options{NumSSDs: 8, Seed: 3, Config: IRQAffinity()})
	sys2.RunFIO(RunSpec{Runtime: 100 * sim.Millisecond})
	if sys2.IRQ.CrossSocketDeliveries() != 0 {
		t.Fatal("pinned vectors crossed sockets")
	}
}

func TestUsedStateStudy(t *testing.T) {
	o := testOpts()
	o.NumSSDs = 4
	o.Runtime = 200 * sim.Millisecond
	ds := RunUsedStateStudy(o)
	fob, used := ds[0], ds[1]
	if used.Summary.Mean[6] <= fob.Summary.Mean[6] {
		t.Fatalf("used-state max %.0f not worse than FOB %.0f (GC should spike)",
			used.Summary.Mean[6], fob.Summary.Mean[6])
	}
}

func TestDeterminism(t *testing.T) {
	o := testOpts()
	o.Runtime = 100 * sim.Millisecond
	a := RunLatencyDistribution(CHRT(), o)
	b := RunLatencyDistribution(CHRT(), o)
	if a.Summary != b.Summary {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a.Summary, b.Summary)
	}
	o2 := o
	o2.Seed = 8
	c := RunLatencyDistribution(CHRT(), o2)
	if a.Summary == c.Summary {
		t.Fatal("different seeds produced identical summaries")
	}
}

func TestReportRendering(t *testing.T) {
	o := testOpts()
	o.Runtime = 100 * sim.Millisecond
	o.NumSSDs = 4
	d := RunLatencyDistribution(ExpFirmware(), o)

	var sb strings.Builder
	WriteDistributionTable(&sb, d)
	for _, want := range []string{"config=expfw", "99.9999%", "max", "mean(µs)"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("distribution table missing %q:\n%s", want, sb.String())
		}
	}

	sb.Reset()
	WriteComparisonTable(&sb, []Distribution{d, d})
	if !strings.Contains(sb.String(), "std(µs)") {
		t.Fatalf("comparison table missing std block:\n%s", sb.String())
	}

	sb.Reset()
	WriteTableII(&sb)
	if !strings.Contains(sb.String(), "13(d)") || !strings.Contains(sb.String(), "solo") {
		t.Fatalf("Table II rendering:\n%s", sb.String())
	}

	sb.Reset()
	WriteHeadline(&sb, Headline{DefaultMeanMax: 4800e3, DefaultStdMax: 1644e3, TunedMeanMax: 600e3, TunedStdMax: 4e3})
	if !strings.Contains(sb.String(), "×8.0") || !strings.Contains(sb.String(), "×411") {
		t.Fatalf("headline rendering:\n%s", sb.String())
	}

	sb.Reset()
	WriteFig10Summary(&sb, Fig10Result{SMARTWindows: 3})
	if !strings.Contains(sb.String(), "SMART windows=3") {
		t.Fatalf("fig10 rendering:\n%s", sb.String())
	}
}

func TestTracerAttachment(t *testing.T) {
	sys := NewSystem(Options{NumSSDs: 4, Seed: 1, Config: Default(), TraceEvents: 100})
	if sys.Tracer == nil {
		t.Fatal("tracer not attached")
	}
	sys.RunFIO(RunSpec{Runtime: 100 * sim.Millisecond})
	if sys.Tracer.Deliveries() == 0 {
		t.Fatal("tracer saw no IRQ deliveries")
	}
	if sys.Tracer.RemoteFraction() < 0.5 {
		t.Fatalf("default config remote fraction = %v, want most deliveries remote",
			sys.Tracer.RemoteFraction())
	}
	foreign := sys.Tracer.ForeignTasksOn(sys.Host.WorkloadCPUs(), "fio/")
	if len(foreign) == 0 {
		t.Fatal("no background tasks observed on workload CPUs under default config")
	}
}

func TestNoDaemonsOption(t *testing.T) {
	sys := NewSystem(Options{NumSSDs: 2, Seed: 1, Daemons: []kernel.DaemonSpec{}})
	if len(sys.Kernel.Daemons()) != 0 {
		t.Fatal("explicit empty daemon set ignored")
	}
}

func TestTailAtScale(t *testing.T) {
	o := testOpts()
	o.Runtime = 300 * sim.Millisecond
	results := RunTailAtScale(ExpFirmware(), []int{1, 4, 16}, o)
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	// Wider stripes amplify the tail monotonically.
	for i := 1; i < len(results); i++ {
		if results[i].Client.P[0] < results[i-1].Client.P[0] {
			t.Fatalf("width %d client P99 %d below width %d's %d",
				results[i].Width, results[i].Client.P[0],
				results[i-1].Width, results[i-1].Client.P[0])
		}
	}
	// A width-16 stripe's P99 must clearly exceed a single SSD's P99.
	if results[2].Amplification < 1.05 {
		t.Fatalf("width-16 amplification = %.2f, want > 1.05", results[2].Amplification)
	}
}

func TestTailAtScaleWidthBoundsChecked(t *testing.T) {
	o := testOpts()
	o.NumSSDs = 4
	defer func() {
		if recover() == nil {
			t.Fatal("oversized stripe accepted")
		}
	}()
	RunTailAtScale(ExpFirmware(), []int{8}, o)
}

func TestPTSLatencyTestReachesSteadyState(t *testing.T) {
	o := testOpts()
	o.NumSSDs = 8
	rep := RunPTSLatencyTest(ExpFirmware(), o, 100*sim.Millisecond, 10)
	if !rep.Result.Steady {
		t.Fatalf("FOB randread never reached PTS steady state: rounds=%v", rep.Result.Rounds)
	}
	if rep.Result.SteadyAt != 5 {
		t.Fatalf("steady at round %d; a stable FOB workload qualifies at the first full window", rep.Result.SteadyAt)
	}
	if len(rep.Rounds) != rep.Result.SteadyAt {
		t.Fatalf("round records = %d", len(rep.Rounds))
	}
	for _, r := range rep.Rounds {
		if r.AvgLatencyNs < 20e3 || r.AvgLatencyNs > 80e3 {
			t.Fatalf("round avg = %.0fns", r.AvgLatencyNs)
		}
		if r.Ladder.N == 0 {
			t.Fatal("round ladder empty")
		}
	}
}
