// Package fio is the workload generator of the methodology section: jobs
// modeled on the FIO tool, with the features the paper relies on — raw
// block device access, thread pinning (cpus_allowed), queue-depth control,
// completion-latency percentile collection identical to fio's output
// (2-nines through 6-nines plus the maximum), and per-I/O latency logging
// (write_lat_log), including the measurement perturbation the paper's
// footnote 1 reports when logging is enabled on too many devices at once.
package fio

import (
	"fmt"
	"strings"

	"repro/internal/kernel"
	"repro/internal/nand"
	"repro/internal/nvme"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// RW is the workload pattern. The empty pattern means RandRead; any
// other value must be one of the three below.
type RW string

// Supported patterns.
const (
	RandRead  RW = "randread"
	RandWrite RW = "randwrite"
	SeqRead   RW = "read"
)

// check rejects a pattern that is not one of the three; the empty
// pattern means RandRead.
func (rw RW) check() error {
	switch rw {
	case "", RandRead, RandWrite, SeqRead:
		return nil
	}
	return fmt.Errorf("unknown rw pattern %q (want %q, %q or %q)", string(rw), RandRead, RandWrite, SeqRead)
}

// JobSpec describes one FIO job: a single workload thread bound to one raw
// NVMe block device.
type JobSpec struct {
	Name string
	SSD  int // target device (/dev/nvmeN)
	RW   RW
	// BS is the block size in bytes (the paper uses 4 KiB).
	BS int
	// IODepth is the queue depth per thread (the paper uses 1).
	IODepth int
	// Runtime is how long the job issues I/O.
	Runtime sim.Duration
	// CPUsAllowed pins the thread (fio's cpus_allowed).
	CPUsAllowed []int
	// Class/RTPrio set the scheduling class (chrt). Default CFS nice 0.
	Class  sched.Class
	RTPrio int
	// LatLog enables per-I/O latency logging (write_lat_log) with the
	// associated per-sample overhead.
	LatLog bool
	// Phases enables per-I/O latency decomposition (blktrace-style; see
	// PhaseReport).
	Phases bool
	// Passthrough gives the job a tenant-owned NVMe SQ/CQ pair and
	// bypasses the kernel tier entirely (SPDK-style): submits are
	// userspace doorbell writes, completions are reaped by spinning on
	// the job's own CQ. No kernel software latency — and no kernel
	// timeout/retry protection: error statuses and firmware stalls
	// surface raw in the job's results.
	Passthrough bool
	Seed        uint64
}

// Validate rejects specs that cannot describe a runnable job. It is
// strict about zero values — callers that want the documented defaults
// (BS one slice, IODepth 1, Runtime 2s) go through New, which fills them
// before validating; a spec that still carries a zero or negative queue
// depth, block size, or runtime at validation time is a bug in the
// caller, not a request for a default.
func (s JobSpec) Validate() error {
	if s.IODepth <= 0 {
		return fmt.Errorf("fio: job %q: iodepth must be positive, got %d", s.Name, s.IODepth)
	}
	if s.BS <= 0 {
		return fmt.Errorf("fio: job %q: block size must be positive, got %d", s.Name, s.BS)
	}
	if s.Runtime <= 0 {
		return fmt.Errorf("fio: job %q: runtime must be positive, got %v", s.Name, s.Runtime)
	}
	if s.SSD < 0 {
		return fmt.Errorf("fio: job %q: ssd index must be non-negative, got %d", s.Name, s.SSD)
	}
	if err := s.RW.check(); err != nil {
		return fmt.Errorf("fio: job %q: %v", s.Name, err)
	}
	return nil
}

// withDefaults fills zero fields.
func (s JobSpec) withDefaults() JobSpec {
	if s.BS == 0 {
		s.BS = nand.SliceBytes
	}
	if s.IODepth == 0 {
		s.IODepth = 1
	}
	if s.Runtime == 0 {
		s.Runtime = 2 * sim.Second
	}
	if s.Name == "" {
		s.Name = fmt.Sprintf("job-nvme%d", s.SSD)
	}
	return s
}

// Result is one job's output.
type Result struct {
	Spec   JobSpec
	Hist   *stats.Histogram
	Ladder stats.Ladder
	Log    *stats.LatLog
	IOs    int64
	// SMARTBlocked counts I/Os that waited on a firmware housekeeping
	// window.
	SMARTBlocked int64
	// RemoteIRQs counts completions delivered on a CPU other than the
	// submitting one.
	RemoteIRQs int64
	// Phases holds the per-phase latency decomposition when
	// JobSpec.Phases is set.
	Phases *PhaseReport
	// Errors counts I/Os that completed with a non-success status (after
	// any kernel-level retries); their latency is not in Hist.
	Errors int64
	// Retried counts I/Os the kernel re-issued at least once before the
	// delivered outcome; TimedOut counts those whose final outcome was a
	// host-side timeout.
	Retried  int64
	TimedOut int64
	// PollSpins counts CQ poll iterations (polling and passthrough modes):
	// together with Costs.PollCheck it is the host-CPU burn the latency
	// win was bought with.
	PollSpins int64
	Runtime   sim.Duration
}

// IOPS reports the job's achieved I/O rate. A job that recorded no
// elapsed time (or a clock anomaly producing a negative one) reports 0
// rather than an infinite or negative rate.
func (r *Result) IOPS() float64 {
	if r.Runtime <= 0 {
		return 0
	}
	return float64(r.IOs) / r.Runtime.Seconds()
}

// Report renders a compact fio-style completion latency report.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: (groupid=0): rw=%s, bs=%d, iodepth=%d\n",
		r.Spec.Name, r.Spec.RW, r.Spec.BS, r.Spec.IODepth)
	fmt.Fprintf(&b, "  read: IOPS=%.0f, ios=%d\n", r.IOPS(), r.IOs)
	fmt.Fprintf(&b, "  clat (usec): avg=%.2f\n", r.Ladder.Avg/1e3)
	fmt.Fprintf(&b, "  clat percentiles (usec):\n")
	for i, q := range stats.LadderNines {
		fmt.Fprintf(&b, "   | %8.4f%%  %10.1f\n", q*100, float64(r.Ladder.P[i])/1e3)
	}
	fmt.Fprintf(&b, "   | %8s%%  %10.1f (max)\n", "100.0000", float64(r.Ladder.Max)/1e3)
	return b.String()
}

// Job is a running FIO thread.
type Job struct {
	spec JobSpec
	k    *kernel.Kernel
	eng  *sim.Engine
	task *sched.Task
	rnd  *rng.Stream

	res       Result
	start     sim.Time
	deadline  sim.Time
	inflight  int
	nextSeq   int64
	logicalSz int64
	done      bool
	onDone    func(*Result)

	// qp is the tenant-owned queue pair (passthrough jobs only); spin
	// caches whether the job reaps by spinning (passthrough, or kernel
	// polling mode) rather than sleeping on interrupt wakes.
	qp   *nvme.QueuePair
	spin bool

	// per-I/O bookkeeping for the completion burst
	pending []kernel.Completion

	// Bound-method values allocate a closure each time they're evaluated,
	// and the submit/complete/reap cycle evaluates one per I/O; bind them
	// once instead; wrapping one in a ReceiverFunc allocates nothing.
	onCompleteTo kernel.Receiver
	onQPResultTo nvme.Receiver
	reapFn       func()
	submitFn     func()
	pollSpinFn   func()
}

// New creates a job (thread is created sleeping; Start launches it).
// Zero spec fields take the documented defaults; a spec that is invalid
// after defaulting (negative queue depth, block size, runtime, ...)
// panics with the Validate error rather than running a silently
// misconfigured workload.
func New(eng *sim.Engine, k *kernel.Kernel, spec JobSpec) *Job {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		panic("fio: invalid JobSpec: " + err.Error())
	}
	j := &Job{
		spec: spec,
		k:    k,
		eng:  eng,
		rnd:  rng.NewLabeled(spec.Seed, "fio-"+spec.Name),
	}
	j.res.Spec = spec
	j.res.Hist = stats.NewHistogram()
	if spec.LatLog {
		j.res.Log = stats.NewLatLog()
	}
	if spec.Phases {
		j.res.Phases = &PhaseReport{}
	}
	j.logicalSz = k.SSDs[spec.SSD].Flash.LogicalSlices()
	j.task = k.Sched.NewTask("fio/"+spec.Name, spec.Class, spec.RTPrio, spec.CPUsAllowed)
	j.pending = make([]kernel.Completion, 0, spec.IODepth)
	if spec.Passthrough {
		j.qp = k.SSDs[spec.SSD].CreateQueuePair()
	}
	j.spin = spec.Passthrough || k.Mode() == kernel.CompletePolling
	j.onCompleteTo = kernel.ReceiverFunc(j.onComplete)
	j.onQPResultTo = nvme.ReceiverFunc(j.onQPResult)
	j.reapFn = j.reap
	j.submitFn = j.submitWindow
	j.pollSpinFn = j.pollSpin
	return j
}

// Task exposes the underlying thread (for tracing).
func (j *Job) Task() *sched.Task { return j.task }

// Start begins issuing I/O; onDone fires once the runtime elapses and the
// last inflight I/O drains. Thread startup is staggered by a small random
// ramp, as real fio thread creation is — synchronized starts would
// phase-lock the QD1 streams.
func (j *Job) Start(onDone func(*Result)) {
	j.onDone = onDone
	ramp := sim.Duration(j.rnd.Int63n(int64(200 * sim.Microsecond)))
	j.eng.Schedule(ramp, func() {
		j.start = j.eng.Now()
		j.deadline = j.start.Add(j.spec.Runtime)
		// First burst: submit the initial window.
		j.task.Exec(j.submitCost(j.spec.IODepth), j.submitFn)
		j.k.Sched.Wake(j.task)
	})
}

func (j *Job) submitCost(n int) sim.Duration {
	if j.spec.Passthrough {
		// Userspace doorbell write: no syscall, no blk-mq.
		return sim.Duration(n) * j.k.Costs().UserSubmit
	}
	return sim.Duration(n) * j.k.Costs().Submit
}

// nextLBA picks the next target block.
func (j *Job) nextLBA() int64 {
	slices := int64(j.spec.BS / nand.SliceBytes)
	if slices < 1 {
		slices = 1
	}
	max := j.logicalSz / slices
	if j.spec.RW == SeqRead {
		lba := (j.nextSeq % max) * slices
		j.nextSeq++
		return lba
	}
	return j.rnd.Int63n(max) * slices
}

func (j *Job) opcode() nvme.Opcode {
	if j.spec.RW == RandWrite {
		return nvme.OpWrite
	}
	return nvme.OpRead
}

// submitWindow issues I/Os until the depth is full (called in thread
// context right after a submit burst completed).
func (j *Job) submitWindow() {
	now := j.eng.Now()
	if now >= j.deadline {
		if j.spin && j.inflight > 0 {
			// A spinning job has no interrupt wake coming: keep polling
			// until the in-flight tail drains.
			j.task.Exec(j.k.Costs().PollCheck, j.pollSpinFn)
			return
		}
		j.finishIfDrained()
		return
	}
	for j.inflight < j.spec.IODepth {
		j.inflight++
		cmd := nvme.Command{Op: j.opcode(), LBA: j.nextLBA(), Bytes: j.spec.BS}
		if j.qp != nil {
			// Passthrough: ring the tenant-owned doorbell; the kernel
			// never sees this command.
			j.qp.Submit(cmd, j.onQPResultTo)
		} else {
			j.k.SubmitIOTo(j.task.CPU(), j.spec.SSD, cmd, j.onCompleteTo)
		}
	}
	if j.spin {
		// Spin on the CQ instead of sleeping: the latency win and the CPU
		// burn of polling both fall out of this loop.
		j.task.Exec(j.k.Costs().PollCheck, j.pollSpinFn)
		return
	}
	// Completions may have raced in while this thread was submitting
	// (QD > 1); reap them now rather than sleeping.
	if len(j.pending) > 0 {
		j.task.Exec(j.reapCost(len(j.pending)), j.reapFn)
	}
	// Otherwise no further Exec: the thread sleeps until a wake.
}

// reapCost is the thread-side cost of reaping n completions and submitting
// their replacements.
func (j *Job) reapCost(n int) sim.Duration {
	cost := sim.Duration(n) * (j.k.Costs().Complete + j.k.Costs().Submit)
	if j.spec.LatLog {
		cost += sim.Duration(n) * j.k.Costs().LatLogRecord
	}
	return cost
}

// pollSpin is one CQ poll iteration (kernel polling mode, or a
// passthrough job spinning on its own CQ).
func (j *Job) pollSpin() {
	j.res.PollSpins++
	if len(j.pending) > 0 {
		per := j.k.Costs().Complete
		if j.spec.Passthrough {
			per = j.k.Costs().UserComplete
		}
		j.task.Exec(sim.Duration(len(j.pending))*per, j.reapFn)
		return
	}
	j.task.Exec(j.k.Costs().PollCheck, j.pollSpinFn)
}

// onQPResult is a passthrough CQE landing in the tenant-owned CQ: no
// interrupt, no kernel — the spinning thread finds it on its next poll
// iteration. The raw device status passes straight through.
func (j *Job) onQPResult(res *nvme.Result) {
	j.pending = append(j.pending, kernel.Completion{
		Result:      *res,
		DeliveredAt: j.eng.Now(),
		Status:      res.Status,
	})
}

// onComplete runs in softirq context on the delivery CPU (or inline in
// polling mode, where the spinning thread reaps it). Appending to pending
// is the one copy of the Completion the completion path makes.
func (j *Job) onComplete(c *kernel.Completion) {
	j.pending = append(j.pending, *c)
	if j.k.Mode() == kernel.CompletePolling {
		return
	}
	if c.WakePenalty > 0 {
		j.task.AddPenalty(c.WakePenalty)
	}
	// Only a sleeping thread needs a wake; a running or queued one will
	// reap this completion at its next burst boundary.
	if j.task.State() == sched.StateSleeping {
		j.task.Exec(j.reapCost(1), j.reapFn)
		j.k.Sched.Wake(j.task)
	}
}

// reap runs in thread context after the completion burst: record latency
// and refill the window.
func (j *Job) reap() {
	now := j.eng.Now()
	for i := range j.pending {
		c := &j.pending[i]
		j.res.IOs++
		j.inflight--
		if c.Retries > 0 {
			j.res.Retried++
		}
		if c.TimedOut {
			j.res.TimedOut++
		}
		if c.Status != nvme.StatusSuccess {
			// A failed I/O's "latency" is the tolerance machinery's give-up
			// time, not a device service time; keep it out of the ladder.
			j.res.Errors++
			continue
		}
		lat := int64(now.Sub(c.Result.SubmittedAt))
		j.res.Hist.Record(lat)
		if c.Result.BlockedBySMART {
			j.res.SMARTBlocked++
		}
		if c.Delivery.Remote {
			j.res.RemoteIRQs++
		}
		if j.res.Log != nil {
			j.res.Log.Add(int64(now), lat)
		}
		if j.res.Phases != nil {
			j.res.Phases.add(c, now)
		}
	}
	j.pending = j.pending[:0]
	if now >= j.deadline {
		if j.spin && j.inflight > 0 {
			// Keep spinning for the in-flight tail; no wake is coming.
			j.task.Exec(j.k.Costs().PollCheck, j.pollSpinFn)
			return
		}
		j.finishIfDrained()
		return
	}
	j.submitWindow()
}

func (j *Job) finishIfDrained() {
	if j.done || j.inflight > 0 {
		return
	}
	j.done = true
	j.res.Runtime = j.eng.Now().Sub(j.start)
	j.res.Ladder = stats.LadderOf(j.res.Hist)
	if j.onDone != nil {
		j.onDone(&j.res)
	}
}

// RunGroup runs a set of jobs to completion and returns their results in
// spec order. It drives the engine itself.
func RunGroup(eng *sim.Engine, k *kernel.Kernel, specs []JobSpec) []*Result {
	results := make([]*Result, len(specs))
	remaining := len(specs)
	var maxDeadline sim.Time
	for i, spec := range specs {
		i := i
		j := New(eng, k, spec)
		if d := eng.Now().Add(j.spec.Runtime); d > maxDeadline {
			maxDeadline = d
		}
		j.Start(func(r *Result) {
			results[i] = r
			remaining--
		})
	}
	// Run until every job drained (a grace period covers the tail I/O).
	grace := sim.Duration(0)
	for remaining > 0 {
		grace += 100 * sim.Millisecond
		eng.RunUntil(maxDeadline.Add(grace))
		if grace > 100*sim.Second {
			panic("fio: jobs failed to drain")
		}
	}
	return results
}
