// Package sim provides the deterministic discrete-event simulation engine
// that underpins the all-flash-array model.
//
// The engine maintains a virtual clock and a priority queue of pending
// events. Events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-break), which makes every simulation fully
// deterministic and therefore reproducible: the same seed always yields the
// same latency distributions.
package sim

import (
	"fmt"
)

// Time is a point in simulated time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of simulated time, in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Microseconds reports d as a floating-point number of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Seconds reports d as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", d.Microseconds())
	}
	return fmt.Sprintf("%dns", int64(d))
}

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) } //afalint:allow simtime -- the canonical Add: the one sanctioned Time+Time site

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as a floating-point number of seconds since start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string { return Duration(t).String() }

// Event is a scheduled callback. The zero value is not usable; events are
// created through Engine.At and Engine.After.
type Event struct {
	when Time
	seq  uint64
	fn   func()
	// tm marks a Timer's heap entry. Its (when, seq) is only a lower
	// bound on the timer's real deadline, which the Timer itself holds;
	// fn is the timer's callback, nil while it is disarmed.
	tm *Timer //afalint:sticky -- set once by NewTimer; pooled events never carry one
	// index is the heap index, inLane in the min lane, -1 when not
	// queued. An int32 beside the three flags keeps Event at 40 bytes,
	// so a Timer fits a 64-byte allocation; one padding byte is left.
	index    int32
	canceled bool
	// pooled marks events created by Schedule/ScheduleAt: their pointers
	// are never handed to callers, so after firing they return to the
	// engine's freelist. At/After events are pinned — callers may retain
	// them for Cancel/Reschedule — and are never recycled.
	pooled bool
	// far records which heap holds the entry: the far heap when it was
	// filed farSpan or more ahead of the clock, else the near heap.
	far bool
}

// inLane is Event.index for the event held in the engine's min lane.
const inLane = -2

// When reports the instant the event is scheduled to fire.
func (e *Event) When() Time { return e.when }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// Engine is a discrete-event simulator. It is not safe for concurrent use;
// a simulation is a single-threaded, deterministic computation.
//
// Pending events live in two binary min-heaps ordered by (when, seq) —
// a near heap for entries filed less than farSpan ahead of the clock
// and a far heap for the rest — plus a one-slot min lane: a
// Schedule/ScheduleAt event that sorts before both heap heads when it is
// pushed waits there instead, so the common "hand off to the next layer
// now" event costs no heap work. An entry is classified once, when it is
// filed, and never moves between heaps, so parked timeouts and ticks do
// not deepen the heap every per-I/O event sifts through. Timers are lazy
// (see Timer). Every queued key is at most its event's real (when, seq)
// — exact for plain events, a lower bound for a timer entry — so
// settling the smaller heap head until its key is exact, then taking the
// smaller of it and the lane, yields events in exactly (when, seq)
// order whichever heap each entry was filed in.
type Engine struct {
	now     Time
	near    []*Event // binary min-heap of entries filed < farSpan ahead
	far     []*Event // binary min-heap of entries filed >= farSpan ahead
	lane    *Event   // the min lane: one pooled event outside the heaps, or nil
	seq     uint64
	stepped uint64
	stopped bool
	// free recycles fired Schedule/ScheduleAt events. A plain slice, not a
	// sync.Pool: the engine is single-threaded and the determinism contract
	// forbids any scheduler-dependent reuse order.
	free []*Event
}

// initialQueueCap sizes each heap so steady-state runs never grow them:
// a 64-SSD headline config keeps well under a thousand events in flight.
const initialQueueCap = 1024

// farSpan splits the near heap from the far heap. Every per-I/O pipeline
// stage is shorter than 100 µs — ULL and PCIe stages are under 10 µs,
// flash reads 50–80 µs — while scheduler ticks, attempt timeouts and
// daemons are 1 ms or longer, so the near heap holds the pipeline and
// the far heap the housekeeping parked behind it. The split only moves
// cost: fire order is (when, seq) for any value.
const farSpan = 100 * Microsecond

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{
		near: make([]*Event, 0, initialQueueCap),
		far:  make([]*Event, 0, initialQueueCap),
	}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Steps reports how many events have fired so far.
func (e *Engine) Steps() uint64 { return e.stepped }

// Pending reports the number of queue entries: live events plus entries
// not yet discarded — canceled events and the stale heap entries of
// re-armed or canceled timers, which are settled only when they reach
// the head.
func (e *Engine) Pending() int {
	n := len(e.near) + len(e.far)
	if e.lane != nil {
		n++
	}
	return n
}

// push enqueues an event, either recycled from the freelist (pooled) or
// freshly allocated (pinned).
func (e *Engine) push(t Time, fn func(), pooled bool) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var ev *Event
	if n := len(e.free); pooled && n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{} //afalint:allow hotalloc -- freelist miss or pinned event; pooled events amortize this across reuses
	}
	ev.when = t
	ev.seq = e.seq
	ev.fn = fn
	ev.canceled = false
	ev.pooled = pooled
	ev.far = t.Sub(e.now) >= farSpan // the heap it is filed in, unless it takes the lane
	e.seq++
	// A pooled event that sorts before the lane and both heap heads
	// takes the lane. Its seq is the newest, so it sorts before the lane
	// event only at a strictly earlier instant.
	if l := e.lane; pooled && (l == nil || t < l.when) &&
		(len(e.near) == 0 || lessEv(ev, e.near[0])) &&
		(len(e.far) == 0 || lessEv(ev, e.far[0])) {
		if l != nil {
			e.heapPush(l)
		}
		ev.index = inLane
		e.lane = ev
	} else {
		// heapPush inlined, so afalint -state sees push reinitialize
		// index and far on every recycled event.
		q := &e.near
		if ev.far {
			q = &e.far
		}
		ev.index = int32(len(*q))
		*q = append(*q, ev)
		siftUp(*q, int(ev.index))
	}
	return ev
}

// heapPush files ev in the near or far heap by how far ahead of the
// clock it is due.
func (e *Engine) heapPush(ev *Event) {
	q := &e.near
	ev.far = ev.when.Sub(e.now) >= farSpan
	if ev.far {
		q = &e.far
	}
	ev.index = int32(len(*q))
	*q = append(*q, ev)
	siftUp(*q, int(ev.index))
}

// heapOf returns the heap holding ev.
func (e *Engine) heapOf(ev *Event) *[]*Event {
	if ev.far {
		return &e.far
	}
	return &e.near
}

// At schedules fn to run at the absolute instant t. Scheduling in the past
// panics: that is always a model bug. The returned event may be retained
// for Cancel or Reschedule; use ScheduleAt when it won't be.
func (e *Engine) At(t Time, fn func()) *Event {
	return e.push(t, fn, false)
}

// After schedules fn to run d after the current instant. A negative d panics.
func (e *Engine) After(d Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return e.push(e.now.Add(d), fn, false)
}

// Schedule is the fire-and-forget form of After: the event cannot be
// canceled or rescheduled, which lets the engine recycle it after it fires
// instead of allocating a fresh one per call. Per-I/O paths should prefer
// it; the recycling is a plain per-engine freelist, so determinism is
// unaffected.
func (e *Engine) Schedule(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.push(e.now.Add(d), fn, true)
}

// ScheduleAt is the fire-and-forget form of At.
func (e *Engine) ScheduleAt(t Time, fn func()) {
	e.push(t, fn, true)
}

// Cancel prevents a pending event from firing. Canceling an event that has
// already fired or been canceled is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil {
		return
	}
	queued := !ev.canceled && ev.index != -1
	ev.canceled = true
	if !queued {
		return
	}
	if ev.index == inLane {
		e.lane = nil
	} else {
		removeAt(e.heapOf(ev), int(ev.index))
	}
	ev.index = -1
	// Pooled pointers are never handed to callers, so a canceled pooled
	// event can go straight back to the freelist. Pinned events keep fn:
	// Reschedule on a canceled event re-arms with the same callback.
	e.recycle(ev)
}

// recycle returns a pooled event that left the queue to the freelist,
// dropping its closure so captured memory is not pinned until the slot's
// next reuse. Pinned events are left alone.
func (e *Engine) recycle(ev *Event) {
	if ev.pooled {
		ev.fn = nil
		e.free = append(e.free, ev)
	}
}

// Reschedule moves a pending event to a new absolute instant. If the event
// already fired or was canceled, a fresh event is scheduled with the same
// callback.
func (e *Engine) Reschedule(ev *Event, t Time) *Event {
	e.Cancel(ev)
	return e.At(t, ev.fn)
}

// next settles the queue and returns the event that fires next without
// removing it, or nil when nothing is pending. The candidate is the
// smaller-keyed of the two heap heads. Settling discards canceled events
// and disarmed timer entries and re-keys a stale timer entry to its
// timer's real deadline, inside its own heap, until the candidate's key
// is exact; since every key in either heap is at least its head's key
// and at most its event's real one, the smaller of the candidate and
// the lane is then the true (when, seq) minimum. The lane is returned
// without settling when it sorts before the candidate's key.
func (e *Engine) next() *Event {
	for {
		l := e.lane
		if l != nil && l.canceled {
			// A tombstone Cancel's fast path missed (marked directly).
			e.lane = nil
			l.index = -1
			e.recycle(l)
			continue
		}
		var h *Event
		if len(e.near) > 0 {
			h = e.near[0]
		}
		if len(e.far) > 0 && (h == nil || lessEv(e.far[0], h)) {
			h = e.far[0]
		}
		if h == nil {
			return l
		}
		if l != nil && lessEv(l, h) {
			return l
		}
		if tm := h.tm; tm != nil {
			switch {
			case h.fn == nil:
				popMin(e.heapOf(h))
			case h.seq != tm.seq:
				h.when, h.seq = tm.at, tm.seq
				siftDown(*e.heapOf(h), 0)
			default:
				return h
			}
			continue
		}
		if h.canceled {
			popMin(e.heapOf(h))
			e.recycle(h)
			continue
		}
		return h
	}
}

// fire removes ev — the event next returned — from the queue and runs it.
func (e *Engine) fire(ev *Event) {
	if ev.index == inLane {
		e.lane = nil
		ev.index = -1
	} else {
		popMin(e.heapOf(ev))
	}
	if ev.when < e.now {
		panic("sim: event queue corrupted (time went backwards)")
	}
	e.now = ev.when
	e.stepped++
	fn := ev.fn
	if ev.tm != nil {
		ev.fn = nil // the timer is disarmed while its callback runs
	} else {
		e.recycle(ev)
	}
	fn()
}

// Step fires the next pending event. It reports false when no events remain.
func (e *Engine) Step() bool {
	ev := e.next()
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

// Run fires events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil fires events with timestamps <= t, then advances the clock to t.
// Events scheduled at exactly t do fire. A Stop leaves the clock at the
// last fired event, so the events still due by t can fire later.
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	for !e.stopped {
		ev := e.next()
		if ev == nil || ev.when > t {
			break
		}
		e.fire(ev)
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// Stop makes the current Run or RunUntil return after the in-flight event
// callback completes.
func (e *Engine) Stop() { e.stopped = true }

// Timer is a reusable cancelable event for callers that keep at most one
// deadline outstanding at a time (a CPU's burst completion, a ticker's
// next fire, a coalescer's flush). The timer owns at most one heap entry
// and reuses its storage forever, so steady-state timer traffic
// allocates nothing.
//
// Timers are lazy. The real deadline (at, seq) lives on the Timer; the
// heap entry's key only bounds it from below. Re-arming to a later
// instant just records the new deadline, re-arming earlier re-keys the
// entry in place, and Cancel only disarms: the stale entry is re-keyed
// or dropped when it reaches its heap's head, so it still counts in
// Engine.Pending until then. The entry stays in the heap it was filed
// in across re-arms; only a fresh arm after it left the queue
// classifies it again. Each arm draws a fresh seq exactly as a
// fresh event would, so fire order is that of a cancel-and-reschedule.
// The zero value is not usable; create through Engine.NewTimer.
type Timer struct {
	eng *Engine
	ev  Event  // the heap entry (ev.index < 0 when not queued) and callback
	at  Time   // real deadline, valid while armed
	seq uint64 // real tie-break, valid while armed
}

// NewTimer returns an unarmed timer bound to the engine.
func (e *Engine) NewTimer() *Timer {
	t := &Timer{eng: e}
	t.ev = Event{index: -1, tm: t}
	return t
}

// Armed reports whether the timer is set to fire.
func (t *Timer) Armed() bool { return t.ev.fn != nil }

// Arm schedules fn to fire d from now, canceling any previous deadline.
func (t *Timer) Arm(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	t.ArmAt(t.eng.now.Add(d), fn)
}

// ArmAt schedules fn to fire at the absolute instant at, canceling any
// previous deadline.
func (t *Timer) ArmAt(at Time, fn func()) {
	e := t.eng
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: arming a timer with a nil callback")
	}
	ev := &t.ev
	t.at, t.seq, ev.fn = at, e.seq, fn
	e.seq++
	switch {
	case ev.index < 0:
		ev.when, ev.seq = at, t.seq
		e.heapPush(ev)
	case at < ev.when:
		// The new seq is the newest, so an earlier key needs an earlier
		// instant; a later or same-instant re-arm leaves the entry as a
		// lower bound for next to settle.
		ev.when, ev.seq = at, t.seq
		siftUp(*e.heapOf(ev), int(ev.index))
	}
}

// Cancel unschedules the pending fire, if any. The heap entry stays
// queued until it reaches the head.
func (t *Timer) Cancel() {
	t.ev.fn = nil
}

// Each heap is a hand-rolled binary min-heap rather than container/heap:
// the stdlib version pays an interface-dispatch call per compare and swap,
// which profiles as ~30% of a full run. Pop order is a pure function of
// the (when, seq) total order — seq is unique — so the heap's internal
// layout can never change simulation results.

func lessEv(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// siftUp and siftDown move a "hole" through the heap instead of swapping
// pairwise: one pointer write per level instead of three, which matters
// because every write to the []*Event spine pays a GC write barrier.

func siftUp(q []*Event, i int) {
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := q[parent]
		if !lessEv(ev, p) {
			break
		}
		q[i] = p
		p.index = int32(i)
		i = parent
	}
	q[i] = ev
	ev.index = int32(i)
}

// siftDown restores heap order below i; it reports whether i moved.
func siftDown(q []*Event, i int) bool {
	n := len(q)
	ev := q[i]
	start := i
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		l := q[left]
		if right := left + 1; right < n && lessEv(q[right], l) {
			least = right
			l = q[right]
		}
		if !lessEv(l, ev) {
			break
		}
		q[i] = l
		l.index = int32(i)
		i = least
	}
	q[i] = ev
	ev.index = int32(i)
	return i > start
}

// popMin removes the earliest event of the heap *hp.
func popMin(hp *[]*Event) {
	q := *hp
	n := len(q) - 1
	ev := q[0]
	q[0] = q[n]
	q[0].index = 0
	q[n] = nil
	*hp = q[:n]
	if n > 0 {
		siftDown(q[:n], 0)
	}
	ev.index = -1
}

// removeAt removes the event at index i of the heap *hp (Engine.Cancel's
// fast path, so a canceled event costs O(log n) now instead of a dead
// tombstone later).
func removeAt(hp *[]*Event, i int) {
	q := *hp
	n := len(q) - 1
	moved := q[n]
	q[n] = nil
	q = q[:n]
	*hp = q
	if i != n {
		q[i] = moved
		moved.index = int32(i)
		if !siftDown(q, i) {
			siftUp(q, i)
		}
	}
}
