package main

import (
	"container/heap"
	"time"
)

// The host's speed drifts by tens of percent over minutes when other
// tenants load it, and a run cannot wait that out. Each repetition
// therefore times a fixed reference workload next to its timed call, and
// host times are reported scaled to the speed at which the reference
// costs refNominalNs per operation. The reference is the simulator's hot
// pattern — pop the earliest of a few thousand pending events, run its
// callback, push it back later — in code of the benchmark's own, so no
// change to the simulator moves it. It allocates nothing while timed.
const (
	refOps     = 100_000
	refPending = 4096
	// refNominalNs is the reference's cost on the 2-vCPU KVM Xeon the
	// README's baseline was recorded on, so scaled times stay close to
	// that machine's nanoseconds.
	refNominalNs = 180.0
)

type refEvent struct {
	at   uint64
	fire func()
}

// refQueue is a binary min-heap of events by time.
type refQueue []*refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// referenceNs runs ops operations of the reference workload and returns
// its host ns per operation.
func referenceNs(ops int) float64 {
	x := uint64(88172645463325252)
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	fired := 0
	q := make(refQueue, refPending)
	for i := range q {
		q[i] = &refEvent{at: next() % 1_000_000, fire: func() { fired++ }}
	}
	heap.Init(&q)
	t0 := time.Now() //afalint:allow wallclock -- host-time measurement
	for i := 0; i < ops; i++ {
		e := q[0]
		e.fire()
		e.at += next() % 100_000
		heap.Fix(&q, 0)
	}
	d := time.Since(t0) //afalint:allow wallclock -- host-time measurement
	if fired != ops {
		panic("bench: reference workload lost events")
	}
	return float64(d.Nanoseconds()) / float64(ops)
}
