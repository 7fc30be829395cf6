package irq

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
)

func newIRQ(t *testing.T, ssds, cpus int, startBalanced bool) (*sim.Engine, *sched.Scheduler, *Controller) {
	t.Helper()
	eng := sim.NewEngine()
	s := sched.New(eng, sched.Config{NumCPUs: cpus, Seed: 1})
	c := New(eng, s, Config{NumSSDs: ssds, NumCPUs: cpus, Seed: 1, StartBalanced: startBalanced})
	return eng, s, c
}

func TestVectorCountMatchesPaper(t *testing.T) {
	_, _, c := newIRQ(t, 64, 40, false)
	if c.NumVectors() != 2560 {
		t.Fatalf("vectors = %d, want 2560 (64 SSDs × 40 CPUs)", c.NumVectors())
	}
}

func TestUnbalancedStartIsAffine(t *testing.T) {
	_, _, c := newIRQ(t, 4, 8, false)
	for s := 0; s < 4; s++ {
		for q := 0; q < 8; q++ {
			if c.EffectiveCPU(s, q) != q {
				t.Fatalf("irq(%d,%d) effective on cpu %d before balancing", s, q, c.EffectiveCPU(s, q))
			}
		}
	}
}

func TestBalancedStartScattersVectors(t *testing.T) {
	_, _, c := newIRQ(t, 64, 40, true)
	remote := 0
	for s := 0; s < 64; s++ {
		for q := 0; q < 40; q++ {
			if c.EffectiveCPU(s, q) != q {
				remote++
			}
		}
	}
	// A scattered layout leaves ~97.5% of vectors off their queue CPU.
	if remote < 2000 {
		t.Fatalf("only %d/2560 vectors scattered", remote)
	}
}

func TestBalancerKeepsRespreading(t *testing.T) {
	eng, _, c := newIRQ(t, 8, 8, true)
	before := c.EffectiveCPU(0, 0)
	moved := false
	for i := 0; i < 5; i++ {
		eng.RunUntil(eng.Now().Add(11 * sim.Second))
		if c.EffectiveCPU(0, 0) != before {
			moved = true
		}
	}
	_, _, passes := c.Stats()
	if passes < 5 {
		t.Fatalf("balancer passes = %d, want ≥5", passes)
	}
	if !moved {
		t.Fatal("vector never moved across 5 balancer passes")
	}
}

func TestLocalDeliveryHasNoPenalty(t *testing.T) {
	eng, _, c := newIRQ(t, 2, 4, false)
	var got Delivery
	fired := false
	c.Deliver(1, 2, func(d Delivery) { got = d; fired = true })
	eng.RunUntil(sim.Time(sim.Millisecond))
	if !fired {
		t.Fatal("delivery callback never fired")
	}
	if got.Remote || got.Executed != 2 {
		t.Fatalf("delivery = %+v, want local on cpu2", got)
	}
	if c.WakePenalty(got) != 0 {
		t.Fatal("local delivery has a wake penalty")
	}
}

func TestRemoteDeliveryPenalized(t *testing.T) {
	eng, _, c := newIRQ(t, 2, 4, false)
	c.eff[1][2] = 0 // force remote
	var got Delivery
	c.Deliver(1, 2, func(d Delivery) { got = d })
	eng.RunUntil(sim.Time(sim.Millisecond))
	if !got.Remote || got.Executed != 0 {
		t.Fatalf("delivery = %+v, want remote on cpu0", got)
	}
	if c.WakePenalty(got) == 0 {
		t.Fatal("remote delivery has no wake penalty")
	}
	local, remote, _ := c.Stats()
	if local != 0 || remote != 1 {
		t.Fatalf("stats local=%d remote=%d", local, remote)
	}
}

func TestDeliveryStealsHandlerCPUTime(t *testing.T) {
	eng, s, c := newIRQ(t, 1, 1, false)
	c.Deliver(0, 0, func(Delivery) {})
	eng.RunUntil(sim.Time(sim.Millisecond))
	if st := s.CPU(0).StolenTime(); st < hardIRQ+softIRQ {
		t.Fatalf("stolen = %v, want ≥ hardirq+softirq", st)
	}
}

func TestRemoteDeliveryStealsRemoteCPU(t *testing.T) {
	// The interference is on the CPU that executes the handler, not the
	// submitting one — that is what pollutes *other* SSDs' threads.
	eng, s, c := newIRQ(t, 2, 4, false)
	c.eff[0][3] = 1
	c.Deliver(0, 3, func(Delivery) {})
	eng.RunUntil(sim.Time(sim.Millisecond))
	if s.CPU(1).StolenTime() == 0 {
		t.Fatal("remote CPU not charged")
	}
	if s.CPU(3).StolenTime() != 0 {
		t.Fatal("submitting CPU wrongly charged")
	}
}

func TestPinAllRestoresAffinityAndStopsBalancer(t *testing.T) {
	eng, _, c := newIRQ(t, 8, 8, true)
	c.PinAll()
	for s := 0; s < 8; s++ {
		for q := 0; q < 8; q++ {
			if c.EffectiveCPU(s, q) != q {
				t.Fatalf("irq(%d,%d) not pinned to its CPU", s, q)
			}
		}
	}
	eng.RunUntil(sim.Time(60 * sim.Second))
	for s := 0; s < 8; s++ {
		for q := 0; q < 8; q++ {
			if c.EffectiveCPU(s, q) != q {
				t.Fatal("balancer moved a pinned vector")
			}
		}
	}
	_, _, passes := c.Stats()
	if passes != 0 {
		t.Fatalf("balancer ran %d passes after PinAll", passes)
	}
}

func TestPinSingleVectorSurvivesBalancer(t *testing.T) {
	eng, _, c := newIRQ(t, 4, 4, true)
	c.Pin(2, 3)
	eng.RunUntil(sim.Time(60 * sim.Second))
	if c.EffectiveCPU(2, 3) != 3 {
		t.Fatal("pinned vector moved")
	}
}

func TestDeliverPanicsOnBadIndices(t *testing.T) {
	_, _, c := newIRQ(t, 2, 2, false)
	for _, f := range []func(){
		func() { c.Deliver(2, 0, func(Delivery) {}) },
		func() { c.Deliver(0, 2, func(Delivery) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSpreadIsDeterministic(t *testing.T) {
	_, _, a := newIRQ(t, 16, 8, true)
	_, _, b := newIRQ(t, 16, 8, true)
	for s := 0; s < 16; s++ {
		for q := 0; q < 8; q++ {
			if a.EffectiveCPU(s, q) != b.EffectiveCPU(s, q) {
				t.Fatal("same seed produced different layouts")
			}
		}
	}
}
