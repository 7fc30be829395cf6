// Package trace is the model's LTTng: it attaches probes to the scheduler
// (sched_switch) and the interrupt controller (irq_handler_entry) and
// provides the two analyses the paper performed with the real tool:
//
//   - Section IV-B: which background processes executed on the CPUs that
//     were supposed to be running only FIO threads;
//   - Section IV-D: which NVMe vectors executed on a CPU other than their
//     designated one (the paper's irq(0,4) observed on cpu(30)).
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/irq"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Dispatch is one sched_switch record.
type Dispatch struct {
	At   sim.Time
	CPU  int
	Task string
}

// Tracer collects probe data. Attach it before running the workload.
type Tracer struct {
	eng *sim.Engine

	// keepEvents bounds the raw dispatch log (counts are always kept).
	keepEvents int
	Dispatches []Dispatch

	// dispatchCount[task][cpu]
	dispatchCount map[string]map[int]int64
	// irqCount[ssd][queue][executedCPU]
	irqCount map[int]map[int]map[int]int64
}

// New builds a tracer retaining at most keepEvents raw dispatch records
// (0 keeps none; counters still accumulate).
func New(eng *sim.Engine, keepEvents int) *Tracer {
	return &Tracer{
		eng:           eng,
		keepEvents:    keepEvents,
		dispatchCount: map[string]map[int]int64{},
		irqCount:      map[int]map[int]map[int]int64{},
	}
}

// AttachSched installs the sched_switch probe.
func (t *Tracer) AttachSched(s *sched.Scheduler) {
	s.OnDispatch = func(cpu int, task *sched.Task) {
		m := t.dispatchCount[task.Name]
		if m == nil {
			m = map[int]int64{}
			t.dispatchCount[task.Name] = m
		}
		m[cpu]++
		if len(t.Dispatches) < t.keepEvents {
			t.Dispatches = append(t.Dispatches, Dispatch{At: t.eng.Now(), CPU: cpu, Task: task.Name})
		}
	}
}

// AttachIRQ installs the irq_handler_entry probe.
func (t *Tracer) AttachIRQ(c *irq.Controller) {
	c.OnDeliver = func(d irq.Delivery) {
		qs := t.irqCount[d.SSD]
		if qs == nil {
			qs = map[int]map[int]int64{}
			t.irqCount[d.SSD] = qs
		}
		cs := qs[d.Queue]
		if cs == nil {
			cs = map[int]int64{}
			qs[d.Queue] = cs
		}
		cs[d.Executed]++
	}
}

// ForeignTask is a non-workload task observed on a workload CPU.
type ForeignTask struct {
	Task       string
	CPU        int
	Dispatches int64
}

// ForeignTasksOn reports tasks whose name lacks the given prefix (e.g.
// "fio/") dispatched on the listed CPUs — the Section IV-B analysis.
func (t *Tracer) ForeignTasksOn(cpus []int, workloadPrefix string) []ForeignTask {
	inSet := map[int]bool{}
	for _, c := range cpus {
		inSet[c] = true
	}
	var out []ForeignTask
	for _, name := range sortedKeys(t.dispatchCount) {
		if strings.HasPrefix(name, workloadPrefix) {
			continue
		}
		percpu := t.dispatchCount[name]
		for _, cpu := range sortedKeys(percpu) {
			if inSet[cpu] {
				out = append(out, ForeignTask{Task: name, CPU: cpu, Dispatches: percpu[cpu]})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dispatches != out[j].Dispatches {
			return out[i].Dispatches > out[j].Dispatches
		}
		if out[i].Task != out[j].Task {
			return out[i].Task < out[j].Task
		}
		return out[i].CPU < out[j].CPU
	})
	return out
}

// MisroutedVector is a vector observed executing off its designated CPU.
type MisroutedVector struct {
	SSD, Queue  int
	ExecutedOn  int
	Occurrences int64
}

// String renders the paper's notation: "irq(0,4) executed on cpu(30)".
func (m MisroutedVector) String() string {
	return fmt.Sprintf("irq(%d,%d) executed on cpu(%d) ×%d", m.SSD, m.Queue, m.ExecutedOn, m.Occurrences)
}

// MisroutedVectors reports every (vector, wrong CPU) pair observed — the
// Section IV-D analysis.
func (t *Tracer) MisroutedVectors() []MisroutedVector {
	var out []MisroutedVector
	for _, ssd := range sortedKeys(t.irqCount) {
		qs := t.irqCount[ssd]
		for _, q := range sortedKeys(qs) {
			cs := qs[q]
			for _, cpu := range sortedKeys(cs) {
				if cpu != q {
					out = append(out, MisroutedVector{SSD: ssd, Queue: q, ExecutedOn: cpu, Occurrences: cs[cpu]})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Occurrences != out[j].Occurrences {
			return out[i].Occurrences > out[j].Occurrences
		}
		if out[i].SSD != out[j].SSD {
			return out[i].SSD < out[j].SSD
		}
		return out[i].Queue < out[j].Queue
	})
	return out
}

// sortedKeys returns m's keys in ascending order, so callers iterate
// maps deterministically (the maporder contract).
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m { // exempt from maporder: keys are sorted immediately below
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
