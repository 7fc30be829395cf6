package sim

import (
	"testing"
	"unsafe"

	"repro/internal/rng"
)

// The differential queue test drives the engine and a reference model in
// lockstep through random mixes of every scheduling operation. The model
// is a plain list of live callbacks; the next one to fire is the (when,
// seq) minimum, with seq drawn exactly where the engine draws it (one per
// push, arm or reschedule). Each firing callback checks that it is the
// model's minimum, then performs more random operations from inside the
// run, so zero-delay hand-offs, same-instant re-arms and lane demotions
// all happen mid-step as they do in the simulator. About a third of the
// delays straddle farSpan, so wheel and far-heap entries interleave in
// time and timers re-arm across the split; many more collide in one
// 64 ns wheel slot, so buckets overflow into the near (spill) heap; some
// land on slot boundaries, at exactly now+farSpan-1, or anywhere in the
// window, so the ring is sparse and wraps many times over a run.

type refEvent struct {
	when  Time
	seq   uint64
	id    int
	timer int // index into queueHarness.timers, -1 for plain events
}

type pinnedRef struct {
	ev  *Event
	ref *refEvent // nil once fired or canceled
	id  int       // the callback's id, kept across Reschedule
}

type queueHarness struct {
	t      *testing.T
	e      *Engine
	r      *rng.Stream
	now    Time
	seq    uint64
	live   []*refEvent
	pinned []*pinnedRef
	timers []*Timer
	tref   []*refEvent // each timer's live deadline, nil when disarmed
	nextID int
	fired  int
	// stopReq records that a callback called Stop during the current
	// Run/RunUntil; budget, when positive, stops Run after that many fires.
	stopReq bool
	budget  int
	// inWheel, inSpill and inFar count checks that found the wheel, the
	// near (spill) heap and the far heap non-empty.
	inWheel, inSpill, inFar int
}

func newQueueHarness(t *testing.T, seed uint64, timers int) *queueHarness {
	h := &queueHarness{t: t, e: NewEngine(), r: rng.New(seed)}
	for i := 0; i < timers; i++ {
		h.timers = append(h.timers, h.e.NewTimer())
		h.tref = append(h.tref, nil)
	}
	return h
}

// add records a new live callback at when and returns it; seq is drawn
// here, in the same order as the engine's own draw.
func (h *queueHarness) add(when Time, id, timer int) *refEvent {
	ref := &refEvent{when: when, seq: h.seq, id: id, timer: timer}
	h.seq++
	h.live = append(h.live, ref)
	return ref
}

func (h *queueHarness) kill(ref *refEvent) {
	for i, x := range h.live {
		if x == ref {
			h.live = append(h.live[:i], h.live[i+1:]...)
			return
		}
	}
	h.t.Fatalf("reference event %d not live", ref.id)
}

func (h *queueHarness) min() *refEvent {
	var m *refEvent
	for _, x := range h.live {
		if m == nil || x.when < m.when || x.when == m.when && x.seq < m.seq {
			m = x
		}
	}
	return m
}

func (h *queueHarness) newID() int {
	h.nextID++
	return h.nextID
}

// callback returns the closure the engine runs for id: it checks the
// fire against the model, then keeps operating from inside the step.
func (h *queueHarness) callback(id int) func() {
	return func() {
		m := h.min()
		if m == nil || m.id != id {
			want := -1
			if m != nil {
				want = m.id
			}
			h.t.Fatalf("fire %d: engine fired callback %d at %v, model expects %d", h.fired, id, h.e.Now(), want)
		}
		if h.e.Now() != m.when {
			h.t.Fatalf("callback %d fired with Now() = %v, want %v", id, h.e.Now(), m.when)
		}
		h.kill(m)
		if m.timer >= 0 {
			h.tref[m.timer] = nil
		}
		for _, p := range h.pinned {
			if p.ref == m {
				p.ref = nil
			}
		}
		h.now = m.when
		h.fired++
		h.checkArmed()
		if h.budget > 0 {
			if h.budget--; h.budget == 0 {
				h.e.Stop()
				h.stopReq = true
			}
		}
		for k := h.r.Intn(3); k > 0; k-- {
			h.op(true)
		}
	}
}

// delay draws from a small range so same-instant ties and full wheel
// buckets are common, from within 20 ns of farSpan so entries land in
// both the wheel and the far heap, or at the wheel's edges: the first
// instant of a slot a few slots ahead, anywhere in the window, and
// exactly farSpan-1, the last instant the wheel takes.
func (h *queueHarness) delay() Duration {
	switch {
	case h.r.Bool(0.3):
		return farSpan + Duration(h.r.Intn(41)-20)
	case h.r.Bool(0.1):
		next := (h.now>>slotShift + Time(1+h.r.Intn(3))) << slotShift
		return next.Sub(h.now)
	case h.r.Bool(0.05):
		return Duration(h.r.Intn(int(farSpan)))
	case h.r.Bool(0.03):
		return farSpan - 1
	case h.r.Bool(0.3):
		return 0
	}
	return Duration(h.r.Intn(40))
}

// rearmTarget picks an instant earlier than, equal to, or later than the
// timer's current deadline (or a fresh one when disarmed), by a few
// nanoseconds, by whole wheel slots, or by farSpan, so wheel entries
// move to earlier slots and entries filed on one side of the split
// re-arm to deadlines the other side would have taken.
func (h *queueHarness) rearmTarget(i int) Time {
	ref := h.tref[i]
	if ref == nil {
		return h.now.Add(h.delay())
	}
	var d Duration
	switch h.r.Intn(6) {
	case 0:
		d = -Duration(1 + h.r.Intn(20))
	case 1:
		return ref.when
	case 2:
		d = Duration(1 + h.r.Intn(60))
	case 3:
		d = -farSpan
	case 4:
		d = farSpan
	case 5:
		d = -Duration(1+h.r.Intn(8)) << slotShift
	}
	if at := ref.when.Add(d); at >= h.now {
		return at
	}
	return h.now
}

func (h *queueHarness) armTimer(i int, at Time, viaArm bool) {
	if old := h.tref[i]; old != nil {
		h.kill(old)
	}
	id := h.newID()
	h.tref[i] = h.add(at, id, i)
	if viaArm {
		h.timers[i].Arm(at.Sub(h.now), h.callback(id))
	} else {
		h.timers[i].ArmAt(at, h.callback(id))
	}
}

// op performs one random operation on both the engine and the model.
func (h *queueHarness) op(inCallback bool) {
	e := h.e
	switch h.r.Intn(13) {
	case 0:
		d := h.delay()
		id := h.newID()
		h.add(h.now.Add(d), id, -1)
		e.Schedule(d, h.callback(id))
	case 1:
		at := h.now.Add(h.delay())
		id := h.newID()
		h.add(at, id, -1)
		e.ScheduleAt(at, h.callback(id))
	case 2, 3:
		at := h.now.Add(h.delay())
		id := h.newID()
		ref := h.add(at, id, -1)
		var ev *Event
		if h.r.Bool(0.5) {
			ev = e.At(at, h.callback(id))
		} else {
			ev = e.After(at.Sub(h.now), h.callback(id))
		}
		h.pinned = append(h.pinned, &pinnedRef{ev: ev, ref: ref, id: id})
	case 4:
		if len(h.pinned) == 0 {
			return
		}
		p := h.pinned[h.r.Intn(len(h.pinned))]
		if p.ref != nil {
			h.kill(p.ref)
			p.ref = nil
		}
		e.Cancel(p.ev)
		if !p.ev.Canceled() {
			h.t.Fatal("Canceled() = false after Cancel")
		}
	case 5:
		if len(h.pinned) == 0 {
			return
		}
		p := h.pinned[h.r.Intn(len(h.pinned))]
		if p.ref != nil {
			h.kill(p.ref)
		}
		at := h.now.Add(h.delay())
		p.ref = h.add(at, p.id, -1)
		p.ev = e.Reschedule(p.ev, at)
	case 6, 7, 8:
		i := h.r.Intn(len(h.timers))
		h.armTimer(i, h.rearmTarget(i), h.r.Bool(0.5))
	case 9, 10:
		i := h.r.Intn(len(h.timers))
		if ref := h.tref[i]; ref != nil {
			h.kill(ref)
			h.tref[i] = nil
		}
		h.timers[i].Cancel()
	case 11:
		if inCallback && h.r.Bool(0.2) {
			e.Stop()
			h.stopReq = true
		}
	case 12:
		// A burst into one 64 ns slot, more than a bucket holds, so the
		// overflow spills into the near heap.
		slot := (h.now.Add(h.delay()) >> slotShift) << slotShift
		for k := 3 + h.r.Intn(6); k > 0; k-- {
			at := slot.Add(Duration(h.r.Intn(1 << slotShift)))
			if at < h.now {
				at = h.now
			}
			id := h.newID()
			h.add(at, id, -1)
			e.ScheduleAt(at, h.callback(id))
		}
	}
}

func (h *queueHarness) checkArmed() {
	for i, tm := range h.timers {
		if got, want := tm.Armed(), h.tref[i] != nil; got != want {
			h.t.Fatalf("timer %d: Armed() = %v, model %v", i, got, want)
		}
	}
}

func (h *queueHarness) check(what string) {
	if h.e.Now() != h.now {
		h.t.Fatalf("after %s: Now() = %v, model %v", what, h.e.Now(), h.now)
	}
	if h.e.Pending() < len(h.live) {
		h.t.Fatalf("after %s: Pending() = %d below %d live events", what, h.e.Pending(), len(h.live))
	}
	h.checkArmed()
	h.checkHeaps(what)
}

// checkHeaps verifies the engine's queue layout: both heaps are
// heap-ordered by (when, seq), every heap entry's index is its slot and
// its far flag names the heap holding it, the wheel is consistent (see
// checkWheel), the lane event is in no store, and an armed timer's entry
// keys at most its real deadline.
func (h *queueHarness) checkHeaps(what string) {
	e := h.e
	for _, heap := range []struct {
		q   []*Event
		far bool
	}{{e.near, false}, {e.far, true}} {
		for i, ev := range heap.q {
			switch {
			case ev == e.lane:
				h.t.Fatalf("after %s: the lane event sits in a heap (far=%v) at %d", what, heap.far, i)
			case int(ev.index) != i:
				h.t.Fatalf("after %s: entry at slot %d (far=%v) has index %d", what, i, heap.far, ev.index)
			case ev.far != heap.far:
				h.t.Fatalf("after %s: entry at slot %d has far=%v in the far=%v heap", what, i, ev.far, heap.far)
			case i > 0 && lessEv(ev, heap.q[(i-1)/2]):
				h.t.Fatalf("after %s: entry at slot %d (far=%v) sorts before its parent", what, i, heap.far)
			}
			h.checkTimerKey(what, ev)
		}
	}
	h.checkWheel(what)
	if l := e.lane; l != nil && l.index != inLane {
		h.t.Fatalf("after %s: lane event has index %d", what, l.index)
	}
	if e.wlen > 0 {
		h.inWheel++
	}
	if len(e.near) > 0 {
		h.inSpill++
	}
	if len(e.far) > 0 {
		h.inFar++
	}
}

func (h *queueHarness) checkTimerKey(what string, ev *Event) {
	if tm := ev.tm; tm != nil && ev.fn != nil && (tm.at < ev.when || tm.at == ev.when && tm.seq < ev.seq) {
		h.t.Fatalf("after %s: timer entry key (%v, %d) above its deadline (%v, %d)", what, ev.when, ev.seq, tm.at, tm.seq)
	}
}

// checkWheel verifies the wheel: each bucket's count is within
// bucketCap, its first count slab cells hold entries and the rest are
// nil; an entry's index encodes its slab position, its instant keys its
// slot and lies in [now, now+farSpan), and its far flag is clear; the
// occupancy bits mark exactly the non-empty buckets and the summary bits
// exactly the non-zero occupancy words; the counts add up to wlen; and
// the cached head is the wheel's (when, seq) minimum.
func (h *queueHarness) checkWheel(what string) {
	e := h.e
	w := e.wheel
	if w == nil {
		if e.wlen != 0 || e.whead != nil {
			h.t.Fatalf("after %s: no wheel, but wlen=%d whead=%v", what, e.wlen, e.whead)
		}
		return
	}
	var min *Event
	total := 0
	for s := 0; s < wheelSlots; s++ {
		n := int(w.n[s])
		if n > bucketCap {
			h.t.Fatalf("after %s: bucket %d holds %d entries", what, s, n)
		}
		if occ := w.occ[s>>6]>>(s&63)&1 == 1; occ != (n > 0) {
			h.t.Fatalf("after %s: bucket %d holds %d entries, occupancy bit %v", what, s, n, occ)
		}
		for k := 0; k < bucketCap; k++ {
			pos := s*bucketCap + k
			ev := w.slab[pos]
			if k >= n {
				if ev != nil {
					h.t.Fatalf("after %s: bucket %d keeps an entry past its count %d", what, s, n)
				}
				continue
			}
			switch {
			case ev == nil:
				h.t.Fatalf("after %s: bucket %d has a hole at %d of %d", what, s, k, n)
			case ev == e.lane:
				h.t.Fatalf("after %s: the lane event sits in bucket %d", what, s)
			case int(wheelBase-ev.index) != pos:
				h.t.Fatalf("after %s: wheel entry at slab %d has index %d", what, pos, ev.index)
			case ev.far:
				h.t.Fatalf("after %s: wheel entry at slab %d has far set", what, pos)
			case int(ev.when>>slotShift)&slotMask != s:
				h.t.Fatalf("after %s: entry due %v sits in bucket %d", what, ev.when, s)
			case ev.when < e.now || ev.when.Sub(e.now) >= farSpan:
				h.t.Fatalf("after %s: wheel entry due %v outside [%v, %v+farSpan)", what, ev.when, e.now, e.now)
			}
			h.checkTimerKey(what, ev)
			if min == nil || lessEv(ev, min) {
				min = ev
			}
			total++
		}
	}
	for i, word := range w.occ {
		if set := w.sum>>i&1 == 1; set != (word != 0) {
			h.t.Fatalf("after %s: occupancy word %d = %#x, summary bit %v", what, i, word, set)
		}
	}
	if total != e.wlen {
		h.t.Fatalf("after %s: wheel holds %d entries, wlen %d", what, total, e.wlen)
	}
	if e.whead != min {
		h.t.Fatalf("after %s: cached wheel head %v, minimum %v", what, e.whead, min)
	}
}

// drive runs n random top-level actions.
func (h *queueHarness) drive(n int) {
	for i := 0; i < n; i++ {
		switch h.r.Intn(8) {
		case 0, 1, 2:
			h.op(false)
			h.check("op")
		case 3, 4:
			want := len(h.live) > 0
			if got := h.e.Step(); got != want {
				h.t.Fatalf("Step() = %v with %d live events", got, len(h.live))
			}
			h.check("Step")
		case 5, 6:
			// Often short of the next deadline, so a stale timer entry
			// at the head past t is common.
			t := h.now.Add(Duration(h.r.Intn(30)))
			h.stopReq = false
			h.e.RunUntil(t)
			if !h.stopReq {
				if m := h.min(); m != nil && m.when <= t {
					h.t.Fatalf("RunUntil(%v) left callback %d due at %v", t, m.id, m.when)
				}
				if h.now < t {
					h.now = t
				}
			}
			h.check("RunUntil")
		case 7:
			h.stopReq = false
			h.budget = 1 + h.r.Intn(20)
			h.e.Run()
			if !h.stopReq && len(h.live) > 0 {
				h.t.Fatalf("Run returned with %d live events and no Stop", len(h.live))
			}
			h.budget = 0
			h.check("Run")
		}
	}
	// Drain: every live callback still fires, in order.
	for steps := 0; h.e.Step(); steps++ {
		if steps > 1_000_000 {
			h.t.Fatal("drain did not terminate")
		}
	}
	if len(h.live) != 0 {
		h.t.Fatalf("queue drained with %d live model events", len(h.live))
	}
	h.check("drain")
	if p := h.e.Pending(); p != 0 {
		h.t.Fatalf("Pending() = %d after drain", p)
	}
}

// TestQueueMatchesReferenceOrder is the differential property test of
// the queue: over random mixes of Schedule, ScheduleAt, At, After,
// Cancel, Reschedule, Stop and Timer Arm/ArmAt/Cancel with earlier,
// later and same-instant re-arms, driven through Step, RunUntil and Run,
// the engine fires callbacks in exactly the reference (when, seq) order
// and agrees with the model on Now() and every timer's Armed().
func TestQueueMatchesReferenceOrder(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		h := newQueueHarness(t, seed, 1+int(seed%6))
		h.drive(1500)
		if h.fired == 0 {
			t.Fatalf("seed %d fired nothing", seed)
		}
		if h.inWheel == 0 || h.inSpill == 0 || h.inFar == 0 {
			t.Fatalf("seed %d did not use every store: wheel %d, spill heap %d, far heap %d checks",
				seed, h.inWheel, h.inSpill, h.inFar)
		}
		if turns := h.now >> slotShift / wheelSlots; turns < 2 {
			t.Fatalf("seed %d ended at %v: the wheel turned %d times, want >= 2", seed, h.now, turns)
		}
	}
}

// FuzzQueueOrder runs the differential queue test from fuzzed seeds and
// timer counts. The committed corpus under testdata/fuzz makes plain
// `go test` replay it; the nightly workflow fuzzes it for new inputs.
func FuzzQueueOrder(f *testing.F) {
	f.Add(uint64(2018), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, timers uint8) {
		h := newQueueHarness(t, seed, 1+int(timers%8))
		h.drive(500)
	})
}

// TestTimerLaterRearmsHoldOneEntry: re-arming a timer to ever later
// instants only records the deadline. A thousand re-arms leave one queue
// entry, and the timer fires once, at the last deadline, with the last
// callback.
func TestTimerLaterRearmsHoldOneEntry(t *testing.T) {
	e := NewEngine()
	tm := e.NewTimer()
	var fired []int
	for i := 0; i < 1000; i++ {
		i := i
		tm.ArmAt(Time(10+i), func() { fired = append(fired, i) })
	}
	if p := e.Pending(); p != 1 {
		t.Fatalf("Pending() = %d after 1000 later re-arms, want 1", p)
	}
	e.Run()
	if len(fired) != 1 || fired[0] != 999 {
		t.Fatalf("fired %v, want [999]", fired)
	}
	if e.Now() != Time(1009) || e.Steps() != 1 {
		t.Fatalf("Now() = %v, Steps() = %d; want 1.009µs, 1", e.Now(), e.Steps())
	}
	if tm.Armed() || e.Pending() != 0 {
		t.Fatalf("Armed() = %v, Pending() = %d after the fire", tm.Armed(), e.Pending())
	}
}

// TestTimerSize: kernel attempt carriers each allocate a Timer, so its
// size class shows in allocated bytes per I/O; the lazy deadline fields
// must keep it within 64 bytes.
func TestTimerSize(t *testing.T) {
	if s := unsafe.Sizeof(Timer{}); s > 64 {
		t.Fatalf("Timer is %d bytes, want <= 64", s)
	}
}

// TestEventSize: Event is the pooled carrier of every Schedule and the
// entry embedded in every Timer, so its size shows in allocated bytes per
// I/O. The three flags share the padding after index; one padding byte
// is left for ROADMAP item 2's per-layer tag.
func TestEventSize(t *testing.T) {
	if s := unsafe.Sizeof(Event{}); s != 40 {
		t.Fatalf("Event is %d bytes, want 40", s)
	}
}

// TestRunUntilSettlesStaleTimerPastT: a timer whose entry still carries
// an old, earlier deadline sits at the head; RunUntil short of the real
// deadline must neither fire nor disarm it, and a canceled timer's entry
// is dropped without firing.
func TestRunUntilSettlesStaleTimerPastT(t *testing.T) {
	e := NewEngine()
	tm := e.NewTimer()
	fired := 0
	tm.ArmAt(10, func() { fired = 100 })
	tm.ArmAt(80, func() { fired++ }) // the entry keeps key 10
	e.RunUntil(50)
	if fired != 0 || !tm.Armed() || e.Now() != 50 {
		t.Fatalf("after RunUntil(50): fired=%d Armed()=%v Now()=%v", fired, tm.Armed(), e.Now())
	}
	e.RunUntil(80)
	if fired != 1 || tm.Armed() || e.Now() != 80 {
		t.Fatalf("after RunUntil(80): fired=%d Armed()=%v Now()=%v", fired, tm.Armed(), e.Now())
	}

	tm.ArmAt(90, func() { fired = 100 })
	tm.Cancel()
	if tm.Armed() || e.Pending() != 1 {
		t.Fatalf("canceled timer: Armed()=%v Pending()=%d, want false, 1 (stale entry)", tm.Armed(), e.Pending())
	}
	e.RunUntil(200)
	if fired != 1 || e.Pending() != 0 || e.Now() != 200 {
		t.Fatalf("after RunUntil(200): fired=%d Pending()=%d Now()=%v", fired, e.Pending(), e.Now())
	}
}

// TestMinLaneDemotion: a pooled event takes the lane only while it sorts
// before the lane and every queue head; an earlier push demotes it into
// the queue, and both still fire in (when, seq) order with the clock
// never going backwards.
func TestMinLaneDemotion(t *testing.T) {
	e := NewEngine()
	var got []int
	e.ScheduleAt(30, func() { got = append(got, 30) })
	if e.lane == nil || e.lane.when != 30 {
		t.Fatal("first pooled event did not take the lane")
	}
	e.ScheduleAt(20, func() { got = append(got, 20) })
	if e.lane.when != 20 || e.wlen != 1 || e.whead.when != 30 {
		t.Fatal("earlier pooled event did not demote the lane into the wheel")
	}
	e.ScheduleAt(20, func() { got = append(got, 21) }) // same instant: the wheel, behind the lane
	e.At(10, func() { got = append(got, 10) })
	e.Run()
	if len(got) != 4 || got[0] != 10 || got[1] != 20 || got[2] != 21 || got[3] != 30 {
		t.Fatalf("fire order %v, want [10 20 21 30]", got)
	}
	// A pooled event due after the wheel head files behind it instead of
	// taking the empty lane.
	e = NewEngine()
	e.At(10, func() {})
	e.ScheduleAt(20, func() {})
	if e.lane != nil || e.wlen != 2 {
		t.Fatalf("pooled event behind the wheel head: lane %v, wlen %d; want no lane, 2", e.lane, e.wlen)
	}
}

// TestStopInRunUntilKeepsClock: a Stop mid-RunUntil leaves the clock at
// the stopping event, so events due by t stay in the future and fire on
// the next run.
func TestStopInRunUntilKeepsClock(t *testing.T) {
	e := NewEngine()
	n := 0
	e.At(10, func() { n++; e.Stop() })
	e.At(20, func() { n++ })
	e.RunUntil(100)
	if n != 1 || e.Now() != 10 {
		t.Fatalf("after stopped RunUntil: n=%d Now()=%v, want 1, 10ns", n, e.Now())
	}
	e.RunUntil(100)
	if n != 2 || e.Now() != 100 {
		t.Fatalf("after resumed RunUntil: n=%d Now()=%v, want 2, 100ns", n, e.Now())
	}
}

// TestWheelBucketSpills: the wheel is allocated on the first near
// filing, not before; a slot takes bucketCap entries and the rest of a
// burst into it spill into the near heap; all of them still fire in
// (when, seq) order.
func TestWheelBucketSpills(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(Time(farSpan), func() { got = append(got, -1) })
	if e.wheel != nil {
		t.Fatal("a far-only queue allocated the wheel")
	}
	// Instants 191, 190, ..., 184 all key slot 2; two share 187.
	for i, at := range []Time{191, 190, 189, 188, 187, 187, 186, 185} {
		i := i
		e.At(at, func() { got = append(got, i) })
	}
	if e.wheel == nil || e.wlen != bucketCap || len(e.near) != 8-bucketCap || len(e.far) != 1 {
		t.Fatalf("wlen=%d near=%d far=%d, want %d in the wheel, %d spilled, 1 far",
			e.wlen, len(e.near), len(e.far), bucketCap, 8-bucketCap)
	}
	e.Run()
	want := []int{7, 6, 4, 5, 3, 2, 1, 0, -1}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestWheelTimerRearms: an earlier re-arm moves a timer's wheel entry to
// its new slot; a later re-arm past the window leaves the entry stale,
// and settling it at the head re-files it into the far heap.
func TestWheelTimerRearms(t *testing.T) {
	e := NewEngine()
	tm := e.NewTimer()
	fired := Time(-1)
	fn := func() { fired = e.Now() }
	tm.ArmAt(1000, fn)
	slotOf := func() int { return int(wheelBase-tm.ev.index) / bucketCap }
	if tm.ev.index > wheelBase || slotOf() != 1000>>slotShift {
		t.Fatalf("armed at 1000: index %d, want slot %d of the wheel", tm.ev.index, 1000>>slotShift)
	}
	tm.ArmAt(200, fn)
	if tm.ev.index > wheelBase || slotOf() != 200>>slotShift || e.wlen != 1 || e.whead != &tm.ev {
		t.Fatalf("re-armed to 200: index %d wlen %d, want the head of slot %d", tm.ev.index, e.wlen, 200>>slotShift)
	}
	late := Time(200 + 3*farSpan)
	tm.ArmAt(late, fn)
	if tm.ev.when != 200 || e.wlen != 1 {
		t.Fatalf("later re-arm moved the entry: key %v, wlen %d", tm.ev.when, e.wlen)
	}
	e.RunUntil(300)
	if fired != -1 || e.wlen != 0 || len(e.far) != 1 || !tm.ev.far || tm.ev.when != late {
		t.Fatalf("after settling: fired=%v wlen=%d far=%d key=%v, want the entry re-filed far at %v",
			fired, e.wlen, len(e.far), tm.ev.when, late)
	}
	e.Run()
	if fired != late || e.Pending() != 0 {
		t.Fatalf("fired at %v, Pending %d; want %v, 0", fired, e.Pending(), late)
	}
}

// TestNearTrafficAllocatesNothing: once the wheel, the heaps and the
// freelist are warm, near-event traffic — instants that collide in one
// slot and spill, a timer re-armed earlier and later, runs that wrap
// the ring — allocates nothing per event, so wheel buckets never grow.
func TestNearTrafficAllocatesNothing(t *testing.T) {
	e := NewEngine()
	tm := e.NewTimer()
	n := 0
	fn := func() { n++ }
	round := func() {
		for i := 0; i < 12; i++ {
			e.Schedule(Duration(i%3), fn)
		}
		e.Schedule(Duration(n%97)*Microsecond, fn)
		tm.Arm(Duration(n%61)*Microsecond, fn)
		tm.Arm(Duration(n%13)*Microsecond, fn)
		e.RunUntil(e.Now().Add(40 * Microsecond))
	}
	for i := 0; i < 100; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(2000, round); avg != 0 {
		t.Fatalf("near traffic allocates %.3f per round of ~15 events, want 0", avg)
	}
	if e.Now() < Time(wheelSlots<<slotShift) {
		t.Fatalf("clock at %v: the ring never wrapped", e.Now())
	}
}
