// Package kernel composes the host side of the stack: the block-layer I/O
// submission path from a pinned thread down to an NVMe controller and back
// up through the MSI-X interrupt path, the background daemon population
// that the paper found interfering with FIO (llvmpipe, lttng-consumerd,
// sshd, kworkers...), and the per-tick housekeeping cost policy (timer
// callbacks, vmstat, RCU) that the isolcpus/nohz_full/rcu_nocbs boot
// options suppress.
package kernel

import (
	"fmt"

	"repro/internal/health"
	"repro/internal/irq"
	"repro/internal/nvme"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
)

// CompletionMode selects how the host learns about completions.
type CompletionMode int

const (
	// CompleteInterrupt is the normal MSI-X path.
	CompleteInterrupt CompletionMode = iota
	// CompletePolling busy-polls the CQ from the submitting thread
	// (Section V discussion; Yang et al.'s "when poll is better than
	// interrupt").
	CompletePolling
)

// Costs are host software path constants.
type Costs struct {
	// Submit is the CPU cost of io_submit for one 4 KiB request
	// (syscall + blk-mq + doorbell write).
	Submit sim.Duration
	// Complete is the CPU cost of reaping one completion in the thread
	// (io_getevents + fio bookkeeping).
	Complete sim.Duration
	// PollCheck is one CQ poll iteration's cost in polling mode.
	PollCheck sim.Duration
	// LatLogRecord is the extra per-I/O cost of fio latency logging
	// (footnote 1: logging on all 64 SSDs perturbed the measurement).
	LatLogRecord sim.Duration
	// UserSubmit is the CPU cost of ringing a passthrough queue pair's
	// doorbell from userspace: build the SQE, MMIO write. No syscall, no
	// blk-mq — this is the whole host submit path in passthrough mode.
	UserSubmit sim.Duration
	// UserComplete is the CPU cost of reaping one CQE from a tenant-owned
	// CQ in userspace (phase check + bookkeeping).
	UserComplete sim.Duration
}

// DefaultCosts returns calibrated host path costs.
func DefaultCosts() Costs {
	return Costs{
		Submit:       1800 * sim.Nanosecond,
		Complete:     1200 * sim.Nanosecond,
		PollCheck:    300 * sim.Nanosecond,
		LatLogRecord: 900 * sim.Nanosecond,
		UserSubmit:   250 * sim.Nanosecond,
		UserComplete: 150 * sim.Nanosecond,
	}
}

// Kernel wires scheduler, IRQ controller, and SSDs together.
type Kernel struct {
	eng   *sim.Engine
	Sched *sched.Scheduler
	IRQ   *irq.Controller
	SSDs  []*nvme.Controller
	costs Costs
	mode  CompletionMode
	rnd   *rng.Stream

	daemons []*Daemon

	coalesce Coalescing
	// coalescers is the dense (ssd, queue) → coalescer table, built at
	// boot when coalescing is enabled (index ssd·NumCPUs + queue).
	coalescers []*coalescer
	// freeCoalDeliv recycles coalesced-delivery batch carriers.
	freeCoalDeliv []*coalDelivery

	timeout TimeoutPolicy
	iostats IOStats

	// health is the per-drive health tracker feeding the adaptive
	// tolerance plane (nil unless Config.Health was set). It observes
	// every managed-command outcome.
	health *health.Tracker

	// retryBuckets are the per-drive retry token buckets (see
	// TimeoutPolicy.Budget); nil when budgets are disabled.
	retryBuckets []retryBucket

	// inflight counts managed commands between submit and surfaced
	// completion; overloaded latches when it crosses the policy's
	// watermark (with hysteresis on the way down).
	inflight   int
	overloaded bool

	// comp is the one Completion every hand-off fills and passes by
	// pointer (see Receiver); handing is set while a receiver holds it.
	comp    Completion
	handing bool

	// freeReqs recycles per-I/O completion carriers (see kioReq); a plain
	// slice keeps reuse order deterministic.
	freeReqs []*kioReq
	// freeMng / freeAtt recycle the managed-path carriers (see mngReq and
	// attReq in timeout.go).
	freeMng []*mngReq
	freeAtt []*attReq

	// tick-work model state
	tickRnd *rng.Stream
}

// Config assembles a Kernel.
type Config struct {
	Sched *sched.Scheduler
	IRQ   *irq.Controller
	SSDs  []*nvme.Controller
	Mode  CompletionMode
	// Coalesce enables NVMe interrupt coalescing (see Coalescing).
	Coalesce Coalescing
	// Timeout arms the host's per-command timeout/retry/abort machinery
	// (see TimeoutPolicy); the zero value preserves the wait-forever
	// behaviour.
	Timeout TimeoutPolicy
	// Health, when non-nil, attaches a per-drive health tracker fed by
	// every managed-command outcome (zero-valued fields take the
	// health.DefaultConfig defaults). The RAID layer consumes it for
	// per-drive adaptive hedge deadlines.
	Health *health.Config
	Seed   uint64
}

// New builds the kernel and installs the tick-work policy on the
// scheduler.
func New(eng *sim.Engine, cfg Config) *Kernel {
	if cfg.Sched == nil || cfg.IRQ == nil {
		panic("kernel: Sched and IRQ required")
	}
	if err := cfg.Timeout.check(); err != nil {
		panic("kernel: " + err.Error())
	}
	k := &Kernel{
		eng:      eng,
		Sched:    cfg.Sched,
		IRQ:      cfg.IRQ,
		SSDs:     cfg.SSDs,
		costs:    DefaultCosts(),
		mode:     cfg.Mode,
		coalesce: cfg.Coalesce,
		timeout:  cfg.Timeout,
		rnd:      rng.NewLabeled(cfg.Seed, "kernel"),
		tickRnd:  rng.NewLabeled(cfg.Seed, "tickwork"),
	}
	// Dense (ssd, queue) → coalescer table, fully built at boot when
	// coalescing is on: the per-CQE lookup on the hot path is a slice
	// index, and every flush callback is bound once, here.
	k.SetCoalescing(cfg.Coalesce)
	if cfg.Health != nil {
		k.health = health.NewTracker(*cfg.Health, len(cfg.SSDs))
	}
	if cfg.Timeout.Budget > 0 {
		k.retryBuckets = make([]retryBucket, len(cfg.SSDs))
		for i := range k.retryBuckets {
			k.retryBuckets[i].tokens = int64(cfg.Timeout.Budget)
		}
	}
	k.Sched.TickWork = k.tickWork
	return k
}

// Health reports the per-drive health tracker (nil unless configured).
func (k *Kernel) Health() *health.Tracker { return k.health }

// Overloaded reports whether in-flight managed-command depth is past
// the policy's watermark. The RAID layer sheds speculative hedges while
// this holds — hedges are the first load to drop under pressure.
func (k *Kernel) Overloaded() bool { return k.overloaded }

// Costs reports the host path constants.
func (k *Kernel) Costs() Costs { return k.costs }

// Mode reports the completion mode.
func (k *Kernel) Mode() CompletionMode { return k.mode }

// tickWork models the housekeeping charged on each scheduler tick:
// a small base (timer callbacks), occasional vmstat-style bursts, and —
// on CPUs whose RCU callbacks are not offloaded — occasional RCU softirq
// batches reaching into the hundreds of microseconds. These are the
// residual noise sources that survive chrt but die with
// isolcpus/nohz_full/rcu_nocbs (Fig 7 → Fig 8).
func (k *Kernel) tickWork(cpu int) sim.Duration {
	d := 1200*sim.Nanosecond + sim.Duration(k.tickRnd.Exp(600))
	if k.tickRnd.Bool(0.05) { // vmstat / timer wheel burst
		d += sim.Duration(k.tickRnd.LogNormalMean(6_000, 0.6))
	}
	if !k.Sched.RCUOffloaded(cpu) && k.tickRnd.Bool(0.02) {
		// RCU callback batch.
		d += sim.Duration(k.tickRnd.LogNormalMean(60_000, 0.7))
	}
	return d
}

// Completion carries everything the submitting thread needs when its I/O
// finishes.
type Completion struct {
	Result nvme.Result
	// Delivery is the interrupt delivery record (zero in polling mode).
	Delivery irq.Delivery
	// WakePenalty is the dispatch penalty the woken thread must be charged
	// (remote IRQ: IPI + cache pollution).
	WakePenalty sim.Duration
	// DeliveredAt is when the host-side completion handler (softirq, or
	// the poll loop) saw the CQE — the last kernel-side phase timestamp.
	DeliveredAt sim.Time
	// Status is the command's final completion status. StatusAborted with
	// TimedOut set means the host gave up after exhausting the timeout
	// policy's retries. Callers must check it before trusting the data.
	Status nvme.Status
	// Retries is how many times the host re-issued this command before
	// the delivered outcome (0 on the untolerant path).
	Retries int
	// TimedOut reports that the final attempt ended in a host-side
	// timeout rather than a device completion.
	TimedOut bool
}

// Receiver takes one I/O's completion. The *Completion points at a
// record the kernel owns and refills for every hand-off: it is valid only
// during the call, and a receiver that needs any of it later copies it
// out.
type Receiver interface {
	OnCompletion(c *Completion)
}

// ReceiverFunc adapts a function to Receiver.
type ReceiverFunc func(c *Completion)

// OnCompletion calls f(c).
func (f ReceiverFunc) OnCompletion(c *Completion) { f(c) }

// completionFunc adapts SubmitIO's by-value done to Receiver. A func
// value is pointer-shaped, so the conversion to the interface allocates
// nothing.
type completionFunc func(Completion)

func (f completionFunc) OnCompletion(c *Completion) { f(*c) }

// SubmitIO is SubmitIOTo with a by-value done adapted to Receiver.
func (k *Kernel) SubmitIO(submitCPU, ssd int, cmd nvme.Command, done func(Completion)) {
	k.SubmitIOTo(submitCPU, ssd, cmd, completionFunc(done))
}

// SubmitIOTo sends a command to an SSD on behalf of a thread currently
// on CPU submitCPU, and passes the completion to to in interrupt
// (softirq) context. The caller charges Costs().Submit to the submitting
// thread's burst; to typically Execs the thread's completion burst and
// wakes it.
// When the kernel was built with a TimeoutPolicy, the command runs under
// per-attempt deadlines with abort + bounded-backoff retry; otherwise a
// command to a dead device never completes, as on an untuned host.
func (k *Kernel) SubmitIOTo(submitCPU, ssd int, cmd nvme.Command, to Receiver) {
	if ssd < 0 || ssd >= len(k.SSDs) {
		panic(fmt.Sprintf("kernel: ssd %d out of range", ssd))
	}
	cmd.Queue = submitCPU
	if k.timeout.Enabled() {
		k.submitManaged(ssd, cmd, to)
		return
	}
	k.submitOnce(ssd, cmd, sink{done: to})
}

// sink is where one CQE's Completion goes: the managed attempt it
// settles, or else the caller's receiver.
type sink struct {
	done Receiver
	att  *attReq
}

func (s sink) complete(c *Completion) {
	if s.att != nil {
		s.att.onComp(c)
		return
	}
	s.done.OnCompletion(c)
}

// dropped tells the managed attempt that its command was lost and no CQE
// will come. On the untolerant path the caller's receiver hears nothing:
// with no timeout policy the host waits forever.
func (s sink) dropped() {
	if s.att != nil {
		s.att.onDrop()
	}
}

// claimComp takes the kernel's one Completion for a hand-off; handOff
// passes it on and gives it back. Hand-offs never nest: each runs to its
// receiver's return before the next CQE, interrupt or abort is
// processed, and a receiver that submits only queues work (a drop notice
// at the doorbell builds no Completion). A nested claim would overwrite
// the record an outer receiver is still reading, so it panics.
func (k *Kernel) claimComp() *Completion {
	if k.handing {
		panic("kernel: nested completion hand-off")
	}
	k.handing = true
	return &k.comp
}

// fillComp claims the kernel's Completion and fills it from a CQE and
// its delivery. Every field is assigned, so nothing of the previous
// hand-off survives.
func (k *Kernel) fillComp(res *nvme.Result, d irq.Delivery, penalty sim.Duration) *Completion {
	c := k.claimComp()
	c.Result = *res
	c.Delivery = d
	c.WakePenalty = penalty
	c.DeliveredAt = k.eng.Now()
	c.Status = res.Status
	c.Retries = 0
	c.TimedOut = false
	return c
}

// handOff passes the claimed Completion to its sink and releases it.
func (k *Kernel) handOff(to sink, c *Completion) {
	to.complete(c)
	k.handing = false
}

// kioReq carries one I/O's host-side completion state from the device
// CQE through interrupt delivery, and is the device's Receiver for the
// command. Requests are recycled through the kernel's freelist with
// their delivery callback bound once, so the per-I/O submit path
// allocates nothing (the closures this replaces were among the top
// allocation sites). The submitting CPU is res.Cmd.Queue.
type kioReq struct {
	k   *Kernel
	ssd int
	// res holds the CQE from the device's hand-off until the interrupt
	// delivers it: the device recycles its own carrier on return.
	res nvme.Result //afalint:sticky -- written by OnResult before onDelivery reads it; no other path reads it
	to  sink

	onDelivFn func(irq.Delivery)
}

func (k *Kernel) getReq(ssd int, to sink) *kioReq {
	var r *kioReq
	if n := len(k.freeReqs); n > 0 {
		r = k.freeReqs[n-1]
		k.freeReqs[n-1] = nil
		k.freeReqs = k.freeReqs[:n-1]
	} else {
		r = &kioReq{k: k}          //afalint:allow hotalloc -- freelist miss only; amortized across carrier reuses
		r.onDelivFn = r.onDelivery //afalint:allow hotalloc -- stage callback bound once per pooled carrier
	}
	r.ssd = ssd
	r.to = to
	return r
}

func (k *Kernel) putReq(r *kioReq) {
	r.to = sink{}
	k.freeReqs = append(k.freeReqs, r)
}

// submitOnce is the raw single-attempt submit path; cmd.Queue is the
// submitting CPU. A command dropped by an offline device never
// completes, but the device's drop notice returns its carrier to the
// freelist (see OnResult).
func (k *Kernel) submitOnce(ssd int, cmd nvme.Command, to sink) {
	k.SSDs[ssd].SubmitTo(cmd, k.getReq(ssd, to))
}

// OnResult is the device CQE landing on the host, or the device's drop
// notice for a command it lost.
func (r *kioReq) OnResult(res *nvme.Result) {
	k := r.k
	to := r.to
	if res.Dropped {
		// No CQE, so no interrupt, coalescing or poll: on every completion
		// path the carrier goes straight back to the freelist.
		k.putReq(r)
		to.dropped()
		return
	}
	cpu := res.Cmd.Queue
	switch k.mode {
	case CompletePolling:
		// The polling thread spins on the CQ: no interrupt, no wake
		// penalty. Delivery is synthesized as local.
		c := k.fillComp(res, irq.Delivery{SSD: r.ssd, Queue: cpu, Executed: cpu}, 0)
		k.putReq(r)
		k.handOff(to, c)
	default:
		if k.coalesce.Enabled() {
			ssd := r.ssd
			k.putReq(r)
			k.coalescerFor(ssd, cpu).add(res, to)
			return
		}
		r.res = *res
		k.IRQ.Deliver(r.ssd, cpu, r.onDelivFn)
	}
}

// onDelivery is the MSI-X interrupt reaching the submitting thread.
func (r *kioReq) onDelivery(d irq.Delivery) {
	k := r.k
	to := r.to
	c := k.fillComp(&r.res, d, k.IRQ.WakePenalty(d))
	k.putReq(r)
	k.handOff(to, c)
}
