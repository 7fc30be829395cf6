package trace

import (
	"strings"
	"testing"

	"repro/internal/irq"
	"repro/internal/sched"
	"repro/internal/sim"
)

func TestForeignTaskAnalysis(t *testing.T) {
	eng := sim.NewEngine()
	s := sched.New(eng, sched.Config{NumCPUs: 2, Seed: 1})
	tr := New(eng, 100)
	tr.AttachSched(s)

	fio := s.NewTask("fio/job0", sched.ClassCFS, 0, []int{1})
	fio.Exec(10*sim.Microsecond, nil)
	s.Wake(fio)
	daemon := s.NewTask("llvmpipe", sched.ClassCFS, 0, []int{1})
	daemon.Exec(10*sim.Microsecond, nil)
	s.Wake(daemon)
	eng.RunUntil(sim.Time(sim.Millisecond))

	foreign := tr.ForeignTasksOn([]int{1}, "fio/")
	if len(foreign) != 1 || foreign[0].Task != "llvmpipe" || foreign[0].CPU != 1 {
		t.Fatalf("foreign = %+v", foreign)
	}
	if got := tr.ForeignTasksOn([]int{0}, "fio/"); len(got) != 0 {
		t.Fatalf("cpu0 foreign = %+v", got)
	}
}

func TestDispatchLogBounded(t *testing.T) {
	eng := sim.NewEngine()
	s := sched.New(eng, sched.Config{NumCPUs: 1, Seed: 1})
	tr := New(eng, 3)
	tr.AttachSched(s)
	for i := 0; i < 10; i++ {
		task := s.NewTask("t", sched.ClassCFS, 0, nil)
		task.Exec(sim.Microsecond, nil)
		s.Wake(task)
		eng.RunUntil(eng.Now().Add(sim.Millisecond))
	}
	if len(tr.Dispatches) != 3 {
		t.Fatalf("kept %d raw events, limit 3", len(tr.Dispatches))
	}
	// Counters keep accumulating past the raw-event cap.
	foreign := tr.ForeignTasksOn([]int{0}, "fio/")
	var total int64
	for _, f := range foreign {
		total += f.Dispatches
	}
	if total != 10 {
		t.Fatalf("counted %d dispatches, want 10", total)
	}
}

func TestMisroutedVectorAnalysis(t *testing.T) {
	eng := sim.NewEngine()
	s := sched.New(eng, sched.Config{NumCPUs: 4, Seed: 1})
	ic := irq.New(eng, s, irq.Config{NumSSDs: 2, NumCPUs: 4, Seed: 99, StartBalanced: true})
	tr := New(eng, 0)
	tr.AttachIRQ(ic)

	for i := 0; i < 20; i++ {
		ic.Deliver(0, 1, func(irq.Delivery) {})
		eng.RunUntil(eng.Now().Add(sim.Millisecond))
	}
	var seen int64
	for _, m := range tr.MisroutedVectors() {
		seen += m.Occurrences
	}
	local, remote, _ := ic.Stats()
	if local+remote != 20 || seen != remote {
		t.Fatalf("deliveries = %d, %d remote, tracer saw %d misrouted", local+remote, remote, seen)
	}
	mis := tr.MisroutedVectors()
	if ic.EffectiveCPU(0, 1) != 1 {
		if len(mis) == 0 {
			t.Fatal("scattered vector produced no misrouted records")
		}
		if mis[0].SSD != 0 || mis[0].Queue != 1 {
			t.Fatalf("misrouted = %+v", mis[0])
		}
		if !strings.Contains(mis[0].String(), "irq(0,1) executed on cpu(") {
			t.Fatalf("String() = %q", mis[0].String())
		}
		if remote != 20 {
			t.Fatalf("remote deliveries = %d of 20", remote)
		}
	}
}

func TestPinnedVectorsShowNoMisrouting(t *testing.T) {
	eng := sim.NewEngine()
	s := sched.New(eng, sched.Config{NumCPUs: 4, Seed: 1})
	ic := irq.New(eng, s, irq.Config{NumSSDs: 2, NumCPUs: 4, Seed: 99, StartBalanced: true})
	ic.PinAll()
	tr := New(eng, 0)
	tr.AttachIRQ(ic)
	for i := 0; i < 20; i++ {
		ic.Deliver(1, 2, func(irq.Delivery) {})
		eng.RunUntil(eng.Now().Add(sim.Millisecond))
	}
	if len(tr.MisroutedVectors()) != 0 {
		t.Fatal("pinned vectors reported as misrouted")
	}
	if _, remote, _ := ic.Stats(); remote != 0 {
		t.Fatalf("remote deliveries = %d", remote)
	}
}
