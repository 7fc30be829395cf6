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
	"math/bits"
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

// Event is a scheduled callback: a Schedule/ScheduleAt event drawn from
// the engine's freelist, or the queue entry embedded in a Timer. The
// zero value is not usable.
type Event struct {
	when Time
	seq  uint64
	fn   func()
	// tm marks a Timer's queue entry. Its (when, seq) is only a lower
	// bound on the timer's real deadline, which the Timer itself holds;
	// fn is the timer's callback, nil while it is disarmed.
	tm *Timer //afalint:sticky -- set once by NewTimer; freelist events never carry one
	// index says where the entry is queued: its heap index (>= 0),
	// notQueued, inLane, or at or below wheelBase its wheel slab
	// position. An int32 beside the far flag keeps Event at 40 bytes,
	// so a Timer fits a 64-byte allocation; three padding bytes are
	// left.
	index int32
	// far marks an entry filed farSpan or more ahead of the clock: it
	// sits in the far heap. A near entry sits in the wheel, or in the
	// near heap when its wheel bucket was full.
	far bool
}

// Event.index values other than a heap index.
const (
	notQueued = -1
	inLane    = -2 // the event held in the engine's min lane
	// wheelBase and below: a wheel entry at slab position wheelBase-index.
	wheelBase = -3
)

// Engine is a discrete-event simulator. It is not safe for concurrent use;
// a simulation is a single-threaded, deterministic computation.
//
// Pending events live in three stores ordered by (when, seq), plus a
// one-slot min lane. An entry filed less than farSpan ahead of the clock
// goes to the wheel, a ring of 64 ns buckets that pops the per-I/O
// pipeline without sifting; one whose bucket is full spills into the
// near heap; the rest — parked timeouts, ticks and daemons — go to the
// far heap. A Schedule/ScheduleAt event that sorts before all three
// heads when it is pushed waits in the lane instead, so the common "hand
// off to the next layer now" event costs no queue work. Timers are lazy
// (see Timer). Every queued key is at most its event's real (when, seq)
// — exact for plain events, a lower bound for a timer entry — so
// settling the smallest of the three heads until its key is exact, then
// taking the smaller of it and the lane, yields events in exactly
// (when, seq) order wherever each entry was filed.
type Engine struct {
	now  Time
	near []*Event // binary min-heap: near entries whose wheel bucket was full
	far  []*Event // binary min-heap of entries filed >= farSpan ahead
	lane *Event   // the min lane: one Schedule/ScheduleAt event outside the queue, or nil
	// wheel holds the other near entries, allocated on the first one
	// filed; whead is its minimum entry (nil when empty) and wlen its
	// size.
	wheel   *wheel
	whead   *Event
	wlen    int
	seq     uint64
	stepped uint64
	// free recycles fired Schedule/ScheduleAt events. A plain slice, not a
	// sync.Pool: the engine is single-threaded and the determinism contract
	// forbids any scheduler-dependent reuse order.
	free []*Event
}

// initialQueueCap sizes each heap so steady-state runs never grow them:
// a 64-SSD headline config keeps well under a thousand events in flight.
const initialQueueCap = 1024

// farSpan splits near entries from the far heap. Every per-I/O pipeline
// stage is shorter than 100 µs — ULL and PCIe stages are under 10 µs,
// flash reads 50–80 µs — while scheduler ticks, attempt timeouts and
// daemons are 1 ms or longer, so the wheel holds the pipeline and the
// far heap the housekeeping parked behind it. The split only moves
// cost: fire order is (when, seq) for any value.
const farSpan = 100 * Microsecond

// Wheel geometry: 2048 slots of 64 ns, 4 entries a bucket. A slot is
// keyed by when>>slotShift&slotMask. The ring spans 131 µs, more than
// farSpan plus one slot, and every wheel entry is due in
// [now, now+farSpan), so a slot never holds entries a lap apart.
const (
	slotShift  = 6
	wheelSlots = 2048
	slotMask   = wheelSlots - 1
	bucketCap  = 4
)

// The ring must outspan farSpan by a slot, or two live entries alias.
const _ = uint64(wheelSlots<<slotShift - 1<<slotShift - farSpan)

// wheel is the near-entry store: bucket s holds n[s] entries at
// slab[s*bucketCap:], unordered. occ has one bit per non-empty bucket
// and sum one bit per non-zero occ word, so the next non-empty bucket
// is two TrailingZeros away however sparse the ring is.
type wheel struct {
	slab [wheelSlots * bucketCap]*Event
	n    [wheelSlots]uint8
	occ  [wheelSlots / 64]uint64
	sum  uint32
}

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

// DueNow reports whether a pending entry may be due at the current
// instant: the lane event or a store head keyed at or before now. It is
// conservative — the stale entry of a re-armed or canceled timer keyed
// at now counts — but never misses a live event due now. When it
// reports false, a zero-delay Schedule would take the lane and fire
// next, so a callback may run that step inline as its last action
// instead.
func (e *Engine) DueNow() bool {
	now := e.now
	return e.lane != nil && e.lane.when <= now ||
		e.whead != nil && e.whead.when <= now ||
		len(e.near) > 0 && e.near[0].when <= now ||
		len(e.far) > 0 && e.far[0].when <= now
}

// Pending reports the number of queue entries: live events plus the
// stale entries of re-armed or canceled timers, which are settled only
// when they reach the head.
func (e *Engine) Pending() int {
	n := len(e.near) + len(e.far) + e.wlen
	if e.lane != nil {
		n++
	}
	return n
}

// push enqueues an event, recycled from the freelist or, on a miss,
// freshly allocated.
func (e *Engine) push(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{} //afalint:allow hotalloc -- freelist miss; events amortize this across reuses
	}
	ev.when = t
	ev.seq = e.seq
	ev.fn = fn
	ev.far = false
	ev.index = notQueued // until the lane or file below queues it
	e.seq++
	// An event that sorts before the lane and all three queue heads
	// takes the lane. Its seq is the newest, so it sorts before the lane
	// event only at a strictly earlier instant.
	if l := e.lane; (l == nil || t < l.when) &&
		(e.whead == nil || lessEv(ev, e.whead)) &&
		(len(e.near) == 0 || lessEv(ev, e.near[0])) &&
		(len(e.far) == 0 || lessEv(ev, e.far[0])) {
		if l != nil {
			e.file(l)
		}
		ev.index = inLane
		e.lane = ev
	} else {
		e.file(ev)
	}
}

// file queues ev, which is in neither the lane nor the queue, by how
// far ahead of the clock it is due: the far heap from farSpan on, else
// the wheel, or the near heap when its wheel bucket is full.
func (e *Engine) file(ev *Event) {
	ev.far = ev.when.Sub(e.now) >= farSpan
	switch {
	case ev.far:
		heapPush(&e.far, ev)
	case !e.wheelPut(ev):
		heapPush(&e.near, ev)
	}
}

// heapPush appends ev to the heap *hp and sifts it into place.
func heapPush(hp *[]*Event, ev *Event) {
	ev.index = int32(len(*hp))
	*hp = append(*hp, ev)
	siftUp(*hp, int(ev.index))
}

// heapOf returns the heap holding ev.
func (e *Engine) heapOf(ev *Event) *[]*Event {
	if ev.far {
		return &e.far
	}
	return &e.near
}

// wheelPut files a near entry in its wheel bucket; it reports false,
// leaving ev unqueued, when the bucket is full.
func (e *Engine) wheelPut(ev *Event) bool {
	w := e.wheel
	if w == nil {
		w = new(wheel) //afalint:allow hotalloc -- once per engine, on its first near entry
		e.wheel = w
	}
	s := int(ev.when>>slotShift) & slotMask
	k := w.n[s]
	if k == bucketCap {
		return false
	}
	w.n[s] = k + 1
	pos := s*bucketCap + int(k)
	w.slab[pos] = ev
	ev.index = int32(wheelBase - pos)
	if k == 0 {
		w.occ[s>>6] |= 1 << (s & 63)
		w.sum |= 1 << (s >> 6)
	}
	e.wlen++
	if h := e.whead; h == nil || lessEv(ev, h) {
		e.whead = ev
	}
	return true
}

// wheelRemove takes a wheel entry out of its bucket, moving the
// bucket's last entry into its place, and finds the new wheel head when
// it was the head.
func (e *Engine) wheelRemove(ev *Event) {
	w := e.wheel
	pos := int(wheelBase - ev.index)
	s := pos / bucketCap
	k := int(w.n[s]) - 1
	w.n[s] = uint8(k)
	last := s*bucketCap + k
	if pos != last {
		m := w.slab[last]
		w.slab[pos] = m
		m.index = int32(wheelBase - pos)
	}
	w.slab[last] = nil
	ev.index = notQueued
	e.wlen--
	if k == 0 {
		if w.occ[s>>6] &^= 1 << (s & 63); w.occ[s>>6] == 0 {
			w.sum &^= 1 << (s >> 6)
		}
	}
	if ev == e.whead {
		e.whead = w.minFrom(s)
	}
}

// minFrom returns the wheel's minimum entry, or nil when it is empty,
// given that no entry sorts before slot s: it is the smallest entry of
// the first non-empty bucket at or after s around the ring.
func (w *wheel) minFrom(s int) *Event {
	if w.sum == 0 {
		return nil
	}
	if w.n[s] == 0 {
		i := s >> 6
		if rest := w.occ[i] >> (s & 63); rest != 0 {
			s += bits.TrailingZeros64(rest)
		} else {
			later := w.sum >> (i + 1) << (i + 1)
			if later == 0 {
				later = w.sum // wrap around the ring
			}
			i = bits.TrailingZeros32(later)
			s = i<<6 + bits.TrailingZeros64(w.occ[i])
		}
	}
	b := w.slab[s*bucketCap : s*bucketCap+int(w.n[s])]
	m := b[0]
	for _, x := range b[1:] {
		if lessEv(x, m) {
			m = x
		}
	}
	return m
}

// dequeue takes a head — the lane event, the wheel head or a heap root —
// out of the queue.
func (e *Engine) dequeue(ev *Event) {
	switch i := ev.index; {
	case i <= wheelBase:
		e.wheelRemove(ev)
	case i == inLane:
		e.lane = nil
	default:
		popRoot(e.heapOf(ev))
	}
	ev.index = notQueued
}

// Schedule runs fn d after the current instant; a negative d panics.
// The event cannot be withdrawn — a deadline that may be canceled is a
// Timer — so the engine recycles it once it fires: steady-state
// scheduling allocates nothing, and the recycling is a plain per-engine
// freelist, so determinism is unaffected.
func (e *Engine) Schedule(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.push(e.now.Add(d), fn)
}

// ScheduleAt runs fn at the absolute instant t, like Schedule. Scheduling
// in the past panics: that is always a model bug.
func (e *Engine) ScheduleAt(t Time, fn func()) {
	e.push(t, fn)
}

// next settles the queue and returns the event that fires next without
// removing it, or nil when nothing is pending. The candidate is the
// smallest-keyed of the wheel, near heap and far heap heads. Settling
// discards disarmed timer entries and re-keys a stale timer entry to
// its timer's real deadline — sifted down inside its heap, or re-filed,
// possibly into the far heap, from the wheel — until the candidate's
// key is exact; since every queued key is at least its store's head
// key and at most its event's real one, the smaller of the candidate
// and the lane is then the true (when, seq) minimum. The lane is
// returned without settling when it sorts before the candidate's key.
func (e *Engine) next() *Event {
	for {
		l := e.lane
		h := e.whead
		if len(e.near) > 0 && (h == nil || lessEv(e.near[0], h)) {
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
		tm := h.tm
		if tm == nil {
			return h
		}
		switch {
		case h.fn == nil:
			e.dequeue(h)
		case h.seq != tm.seq:
			if h.index <= wheelBase {
				e.wheelRemove(h)
				h.when, h.seq = tm.at, tm.seq
				e.file(h)
			} else {
				h.when, h.seq = tm.at, tm.seq
				siftDown(*e.heapOf(h), 0)
			}
		default:
			return h
		}
	}
}

// fire removes ev — the event next returned — from the queue and runs it.
func (e *Engine) fire(ev *Event) {
	e.dequeue(ev)
	if ev.when < e.now {
		panic("sim: event queue corrupted (time went backwards)")
	}
	e.now = ev.when
	e.stepped++
	// Dropping fn disarms a timer while its callback runs, and keeps a
	// freelist event from pinning its closure's captures until reuse.
	fn := ev.fn
	ev.fn = nil
	if ev.tm == nil {
		e.free = append(e.free, ev)
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

// Run fires events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps <= t, then advances the clock to t.
// Events scheduled at exactly t do fire.
func (e *Engine) RunUntil(t Time) {
	for {
		ev := e.next()
		if ev == nil || ev.when > t {
			break
		}
		e.fire(ev)
	}
	if e.now < t {
		e.now = t
	}
}

// Timer is a reusable cancelable event for callers that keep at most one
// deadline outstanding at a time (a CPU's burst completion, a ticker's
// next fire, a coalescer's flush). The timer owns at most one queue entry
// and reuses its storage forever, so steady-state timer traffic
// allocates nothing.
//
// Timers are lazy. The real deadline (at, seq) lives on the Timer; the
// queue entry's key only bounds it from below. Re-arming to a later
// instant just records the new deadline, re-arming earlier re-keys the
// entry — sifted up in its heap, or moved to its new wheel slot — and
// Cancel only disarms: the stale entry is re-keyed or dropped when it
// reaches the head, so it still counts in Engine.Pending until then. A
// heap entry stays in the heap it was filed in across re-arms; a wheel
// entry re-keyed at the head is filed again by its new deadline, as is
// a fresh arm after the entry left the queue. Each arm draws a fresh seq
// exactly as a Schedule would, so a timer fires where an event
// scheduled by the same call would. The zero value is not usable;
// create through Engine.NewTimer.
type Timer struct {
	eng *Engine
	ev  Event  // the queue entry (ev.index == notQueued when not queued) and callback
	at  Time   // real deadline, valid while armed
	seq uint64 // real tie-break, valid while armed
}

// NewTimer returns an unarmed timer bound to the engine.
func (e *Engine) NewTimer() *Timer {
	t := &Timer{eng: e} //afalint:allow hotalloc -- hot callers reach it only on a carrier freelist miss
	t.ev = Event{index: notQueued, tm: t}
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
	case ev.index == notQueued:
		ev.when, ev.seq = at, t.seq
		e.file(ev)
	case at < ev.when:
		// The new seq is the newest, so an earlier key needs an earlier
		// instant; a later or same-instant re-arm leaves the entry as a
		// lower bound for next to settle.
		if ev.index <= wheelBase {
			e.wheelRemove(ev)
			ev.when, ev.seq = at, t.seq
			e.file(ev)
		} else {
			ev.when, ev.seq = at, t.seq
			siftUp(*e.heapOf(ev), int(ev.index))
		}
	}
}

// Cancel unschedules the pending fire, if any. The queue entry stays
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

// siftDown restores heap order below i.
func siftDown(q []*Event, i int) {
	n := len(q)
	ev := q[i]
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
}

// popRoot removes the root of the heap *hp, the entry that fires or is
// settled: the last entry takes its place and sifts down.
func popRoot(hp *[]*Event) {
	q := *hp
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	*hp = q
	if n > 0 {
		q[0] = last
		siftDown(q, 0)
	}
}
