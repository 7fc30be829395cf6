package fault_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/nand"
	"repro/internal/raid"
	"repro/internal/sim"
)

// runFaulted boots a small tolerant system under a busy fault plan —
// every failure mode armed, including a mid-run drop-out — runs a striped
// client over it, and flattens everything observable into one string:
// the failure trace, the client counters, the kernel tolerance counters,
// and the latency ladder. Determinism means this string is byte-identical
// across runs of the same seed.
func runFaulted(seed uint64) string {
	const runtime = 30 * sim.Millisecond
	plan := fault.Plan{Profiles: []fault.Profile{
		{SSD: 0, DropAt: sim.Time(0).Add(runtime / 3),
			RecoverAt: sim.Time(0).Add(2 * runtime / 3)},
		{SSD: 1, ReadSlowdown: 2.5, WriteSlowdown: 3, TransientRate: 0.01},
		{SSD: 2, BadLBAs: []int64{3, 5}, BadLBAsAt: sim.Time(0).Add(runtime / 4),
			GCStorms:    []fault.Window{{At: sim.Time(0).Add(runtime / 2), For: runtime / 8}},
			StormFactor: 6},
		{SSD: 3, FirmwareStalls: fault.PeriodicStalls(
			sim.Time(0).Add(runtime/5), runtime/3, sim.Millisecond, sim.Time(0).Add(runtime))},
	}}
	cfg := core.FaultTolerance()
	sys := core.NewSystem(core.Options{
		NumSSDs: 6, Seed: seed, Config: cfg, Geom: nand.TinyGeometry(),
		FaultPlan: &plan,
	})
	res := raid.Run(sys.Eng, sys.Kernel, []raid.ClientSpec{{
		Name: "det", Stripe: []int{0, 1, 2, 3}, CPU: sys.Host.WorkloadCPUs()[0],
		Runtime: runtime, Class: cfg.FIOClass, RTPrio: cfg.FIORTPrio,
		Tol: raid.DefaultTolerance(4), Seed: seed,
	}})[0]
	return fmt.Sprintf("trace:\n%scounters: %+v\nkernel: %+v\nladder: %v\n",
		sys.Faults.TraceString(),
		struct {
			Requests, Failed, SubIOErrors, Degraded, Hedged, Wins, Late int64
		}{res.Requests, res.FailedRequests, res.SubIOErrors, res.DegradedReads,
			res.HedgedReads, res.HedgeWins, res.LateSubIOs},
		sys.Kernel.IOStats(), res.Ladder)
}

// TestFaultReplayDeterminism is the PR's core contract: an identical seed
// and FaultPlan must replay a byte-identical failure trace, retry
// counters, and latency ladder.
func TestFaultReplayDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full faulted runs per seed")
	}
	property := func(seed uint64) bool {
		a, b := runFaulted(seed), runFaulted(seed)
		if a != b {
			t.Logf("seed %d diverged:\n--- run A ---\n%s--- run B ---\n%s", seed, a, b)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 3}); err != nil {
		t.Fatal(err)
	}
}

func TestInjectorRecordsTrace(t *testing.T) {
	out := runFaulted(42)
	for _, want := range []string{"drop", "recover", "slow-bin", "slow-write",
		"transient-rate", "bad-lba", "storm-start", "storm-end", "fw-stall"} {
		if !contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
}

// TestEventString pins the trace line format: an event without detail
// ends at its kind, with no trailing space.
func TestEventString(t *testing.T) {
	at := sim.Time(0).Add(125 * sim.Millisecond)
	for _, tc := range []struct {
		e    fault.Event
		want string
	}{
		{fault.Event{At: at, SSD: 0, Kind: "drop"}, "125.000ms ssd=0 drop"},
		{fault.Event{At: at, SSD: 2, Kind: "bad-lba", Detail: "lba=3"}, "125.000ms ssd=2 bad-lba lba=3"},
	} {
		if got := tc.e.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestInjectorValidatesSSDRange(t *testing.T) {
	eng := sim.NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range SSD accepted")
		}
	}()
	fault.NewInjector(eng, nil, fault.Plan{Profiles: []fault.Profile{{SSD: 3}}})
}

func TestInjectorValidatesRecoveryOrder(t *testing.T) {
	sys := core.NewSystem(core.Options{NumSSDs: 2, Seed: 1, Geom: nand.TinyGeometry()})
	defer func() {
		if recover() == nil {
			t.Fatal("recovery before drop accepted")
		}
	}()
	fault.NewInjector(sys.Eng, sys.SSDs, fault.Plan{Profiles: []fault.Profile{
		{SSD: 0, DropAt: sim.Time(0).Add(sim.Second), RecoverAt: sim.Time(0).Add(sim.Millisecond)},
	}})
}

func TestPeriodicStalls(t *testing.T) {
	ws := fault.PeriodicStalls(sim.Time(0).Add(10*sim.Millisecond),
		20*sim.Millisecond, sim.Millisecond, sim.Time(0).Add(100*sim.Millisecond))
	if len(ws) != 5 {
		t.Fatalf("windows = %d, want 5", len(ws))
	}
	for i, w := range ws {
		want := sim.Time(0).Add(sim.Duration(10+20*i) * sim.Millisecond)
		if w.At != want || w.For != sim.Millisecond {
			t.Fatalf("window %d = %+v", i, w)
		}
	}
}

func TestPeriodicStallsRejectsNonPositivePeriod(t *testing.T) {
	horizon := sim.Time(0).Add(100 * sim.Millisecond)
	// A zero period would loop forever; a negative one would walk time
	// backwards. Both must yield no windows, not hang or panic.
	if ws := fault.PeriodicStalls(0, 0, sim.Millisecond, horizon); ws != nil {
		t.Fatalf("zero period produced %d windows", len(ws))
	}
	if ws := fault.PeriodicStalls(0, -sim.Millisecond, sim.Millisecond, horizon); ws != nil {
		t.Fatalf("negative period produced %d windows", len(ws))
	}
}
