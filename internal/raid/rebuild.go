// The rebuild engine: after a member is replaced, its contents are
// reconstructed stripe by stripe from the survivors and the parity
// member. Rebuild I/O flows through the same kernel/device path as
// foreground traffic — it competes for CPU (its own sched task), for
// submission-queue slots, and for the target's write-token bucket — which
// is exactly the degraded-mode contention RAID papers warn about. A
// tunable inter-stripe throttle trades rebuild time against foreground
// tail latency.

package raid

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/nand"
	"repro/internal/nvme"
	"repro/internal/sched"
	"repro/internal/sim"
)

// RebuildSpec describes one member-rebuild stream.
type RebuildSpec struct {
	// Survivors are the data members read for reconstruction; Parity is
	// the parity member; Target is the replaced member being written.
	Survivors []int
	Parity    int
	Target    int
	// CPU pins the rebuild thread. It runs CFS, so foreground RT I/O
	// preempts it.
	CPU int
	// StartAt is when the stream begins (e.g. the member's recovery
	// instant); Stripes is how many stripes to reconstruct.
	StartAt sim.Time
	Stripes int64
	// Throttle is the pause between consecutive stripes — the
	// rebuild-rate knob. 0 rebuilds flat out.
	Throttle sim.Duration
}

// RebuildResult is the stream's outcome (a snapshot if the run ended
// before the stream finished).
type RebuildResult struct {
	Spec           RebuildSpec
	StripesRebuilt int64
	StripesFailed  int64
	Reads          int64
	Writes         int64
	ReadErrors     int64
	WriteErrors    int64
	StartedAt      sim.Time
	FinishedAt     sim.Time
	Done           bool
}

// Rebuilder streams stripe reconstruction: read survivors + parity,
// write the reconstructed slice to the target, throttle, repeat. One
// stripe is in flight at a time (QD1), as md/raid5 resync does.
type Rebuilder struct {
	spec RebuildSpec
	k    *kernel.Kernel
	eng  *sim.Engine
	task *sched.Task

	res          RebuildResult
	stripe       int64
	readsLeft    int
	stripeFailed bool
	onDone       func(*RebuildResult)

	// readTargets is survivors + parity, precomputed so issueStripe does
	// not rebuild the fan-out slice per stripe.
	readTargets []int

	// Bound-method values allocate a closure each time they're
	// evaluated, and the stripe cycle evaluates several per stripe; bind
	// them once at construction.
	issueStripeFn func()
	issueWriteFn  func()
	readDoneFn    kernel.Receiver
	writeDoneFn   kernel.Receiver
	nextStripeFn  func()
}

// NewRebuilder creates a rebuild stream (call Start to schedule it).
func NewRebuilder(eng *sim.Engine, k *kernel.Kernel, spec RebuildSpec) *Rebuilder {
	if len(spec.Survivors) == 0 {
		panic("raid: rebuild with no survivors")
	}
	for _, ssd := range spec.Survivors {
		if ssd == spec.Target || ssd == spec.Parity {
			panic(fmt.Sprintf("raid: rebuild survivor %d is the target or parity", ssd))
		}
	}
	if spec.Target == spec.Parity {
		panic("raid: rebuild target is the parity member")
	}
	if spec.Stripes <= 0 {
		panic("raid: rebuild needs Stripes > 0")
	}
	if limit := k.SSDs[spec.Target].Flash.LogicalSlices(); spec.Stripes > limit {
		spec.Stripes = limit
	}
	rb := &Rebuilder{spec: spec, k: k, eng: eng}
	rb.res.Spec = spec
	rb.task = k.Sched.NewTask(fmt.Sprintf("raid/rebuild-%d", spec.Target), sched.ClassCFS, 0, []int{spec.CPU})
	rb.readTargets = append(append([]int{}, spec.Survivors...), spec.Parity)
	rb.issueStripeFn = rb.issueStripe
	rb.issueWriteFn = rb.issueWrite
	rb.readDoneFn = kernel.ReceiverFunc(rb.readDone)
	rb.writeDoneFn = kernel.ReceiverFunc(rb.writeDone)
	rb.nextStripeFn = rb.nextStripe
	return rb
}

// Start schedules the stream at StartAt; onDone fires when the last
// stripe settles (it never fires if the run ends first — use Result for
// a snapshot).
func (rb *Rebuilder) Start(onDone func(*RebuildResult)) {
	rb.onDone = onDone
	at := rb.spec.StartAt
	if now := rb.eng.Now(); at < now {
		at = now
	}
	rb.eng.ScheduleAt(at, func() {
		rb.res.StartedAt = rb.eng.Now()
		rb.wakeTask(rb.readBurst(), rb.issueStripeFn)
	})
}

// Result returns a snapshot of the stream's progress.
func (rb *Rebuilder) Result() RebuildResult { return rb.res }

// wakeTask charges a submit burst on the rebuild thread and wakes it.
// The task is always sleeping at these points: it is QD1 and only its
// own completions schedule work.
func (rb *Rebuilder) wakeTask(cost sim.Duration, fn func()) {
	if rb.task.State() == sched.StateSleeping {
		rb.task.Exec(cost, fn)
		rb.k.Sched.Wake(rb.task)
	}
}

func (rb *Rebuilder) readBurst() sim.Duration {
	return sim.Duration(len(rb.spec.Survivors)+1) * rb.k.Costs().Submit
}

// issueStripe runs on the rebuild thread: fan reconstruction reads out
// to the survivors and the parity member for the current stripe.
func (rb *Rebuilder) issueStripe() {
	if rb.stripe >= rb.spec.Stripes {
		rb.finish()
		return
	}
	rb.stripeFailed = false
	rb.readsLeft = len(rb.spec.Survivors) + 1
	lba := rb.stripe
	for _, ssd := range rb.readTargets {
		rb.res.Reads++
		cmd := nvme.Command{Op: nvme.OpRead, LBA: lba, Bytes: nand.SliceBytes}
		rb.k.SubmitIOTo(rb.task.CPU(), ssd, cmd, rb.readDoneFn)
	}
}

// readDone runs in softirq context for each reconstruction read.
func (rb *Rebuilder) readDone(comp *kernel.Completion) {
	if comp.WakePenalty > 0 {
		rb.task.AddPenalty(comp.WakePenalty)
	}
	if comp.Status != nvme.StatusSuccess {
		rb.res.ReadErrors++
		rb.stripeFailed = true
	}
	rb.readsLeft--
	if rb.readsLeft > 0 {
		return
	}
	if rb.stripeFailed {
		// A survivor (or parity) failed: this stripe cannot be rebuilt
		// now; move on rather than stall the whole stream.
		rb.res.StripesFailed++
		rb.advance()
		return
	}
	rb.wakeTask(rb.k.Costs().Submit, rb.issueWriteFn)
}

// issueWrite runs on the rebuild thread: write the reconstructed slice
// to the target (the XOR is sub-microsecond, folded into the burst).
func (rb *Rebuilder) issueWrite() {
	rb.res.Writes++
	cmd := nvme.Command{Op: nvme.OpWrite, LBA: rb.stripe, Bytes: nand.SliceBytes}
	rb.k.SubmitIOTo(rb.task.CPU(), rb.spec.Target, cmd, rb.writeDoneFn)
}

// writeDone runs in softirq context for the target write.
func (rb *Rebuilder) writeDone(comp *kernel.Completion) {
	if comp.WakePenalty > 0 {
		rb.task.AddPenalty(comp.WakePenalty)
	}
	if comp.Status == nvme.StatusSuccess {
		rb.res.StripesRebuilt++
	} else {
		rb.res.WriteErrors++
		rb.res.StripesFailed++
	}
	rb.advance()
}

// advance moves to the next stripe after the throttle pause.
func (rb *Rebuilder) advance() {
	rb.stripe++
	if rb.spec.Throttle > 0 {
		rb.eng.Schedule(rb.spec.Throttle, rb.nextStripeFn)
		return
	}
	rb.nextStripe()
}

// nextStripe wakes the rebuild thread for the next stripe's read burst.
func (rb *Rebuilder) nextStripe() {
	rb.wakeTask(rb.readBurst(), rb.issueStripeFn)
}

func (rb *Rebuilder) finish() {
	rb.res.Done = true
	rb.res.FinishedAt = rb.eng.Now()
	if rb.onDone != nil {
		rb.onDone(&rb.res)
	}
}
