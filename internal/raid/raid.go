// Package raid models the client-visible side of the paper's motivation
// (Section I): "in an AFA, one request from a client is divided into
// multiple I/Os, which are then distributed to many SSDs in parallel as in
// RAID. In such a setting, long tail latency of the slowest SSD would
// decide system's overall responsiveness."
//
// A Client issues striped read requests: each request fans out one 4 KiB
// sub-I/O to every SSD in its stripe set and completes when the *last*
// sub-I/O completes. The per-request latency distribution therefore
// amplifies the per-SSD tail: with a stripe width of w, a per-SSD
// p-quantile event becomes a per-request 1-(1-p)^w event — which is why
// the paper insists the impact of tail latency is much higher in an AFA
// than in systems with few SSDs.
//
// The write side (write.go) models the RAID small-write penalty: each
// random write is a read-modify-write parity update (read old data, read
// old parity, write data, write parity), degrading to reconstruct-then-
// write or parity-only logging when members fail. rebuild.go streams
// background stripe reconstruction that competes with this foreground
// traffic.
package raid

import (
	"fmt"
	"math/bits"

	"repro/internal/kernel"
	"repro/internal/nand"
	"repro/internal/nvme"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Tolerance configures the client's fault-tolerance machinery: degraded
// reads reconstruct a failed data sub-I/O from the stripe's parity member
// (the request already holds every other data slice, so XOR needs only
// the one extra parity read), and hedged reads fire that same
// reconstruction speculatively when a request's last straggler exceeds an
// adaptive latency quantile — Dean & Barroso's tail-at-scale answer.
type Tolerance struct {
	// ParitySSD is the stripe's parity member. It must not appear in the
	// data stripe.
	ParitySSD int
	// HedgeQuantile > 0 enables hedged reads: once a request has exactly
	// one sub-I/O outstanding and its age exceeds this quantile of the
	// observed request-latency distribution, the parity read is fired and
	// whichever path answers first completes the request.
	HedgeQuantile float64
	// HedgeMin floors the hedge delay, and is used verbatim until
	// MinSamples requests have been observed (a cold quantile estimate
	// would hedge everything).
	HedgeMin sim.Duration
	// MinSamples gates the adaptive quantile.
	MinSamples int64
	// Adaptive switches hedge deadlines from the client-wide latency
	// quantile to the straggling drive's own health-tracker deadline
	// (kernel.Config.Health): a slow-bin member is hedged at *its*
	// baseline instead of dragging the whole client's hedge delay up,
	// and a suspect member is hedged sooner. Falls back to the static
	// delay per drive until that drive's tracker is warm, and entirely
	// when the kernel has no tracker.
	Adaptive bool
}

// DefaultTolerance returns the calibrated tolerance knobs: hedge at the
// observed p99 (the ladder's first rung), floored at 300 µs until 100
// samples exist.
func DefaultTolerance(paritySSD int) *Tolerance {
	return &Tolerance{
		ParitySSD:     paritySSD,
		HedgeQuantile: 0.99,
		HedgeMin:      300 * sim.Microsecond,
		MinSamples:    100,
	}
}

// Workload selects what a Client issues.
type Workload int

const (
	// WorkloadRead fans every request out to the whole stripe (one 4 KiB
	// read per member) and completes on the last sub-I/O.
	WorkloadRead Workload = iota
	// WorkloadWrite issues small random writes as read-modify-write
	// parity updates against a single data member plus the parity member.
	WorkloadWrite
)

func (w Workload) String() string {
	switch w {
	case WorkloadRead:
		return "read"
	case WorkloadWrite:
		return "write"
	default:
		return fmt.Sprintf("Workload(%d)", int(w))
	}
}

// ClientSpec describes a striped client.
type ClientSpec struct {
	Name string
	// Workload selects striped reads (default) or RMW small writes.
	Workload Workload
	// Stripe lists the data members. Reads fan out to all of them; writes
	// pick one per request.
	Stripe []int
	// Parity is the stripe's parity member, required for WorkloadWrite
	// (every small write updates it). When Tol is also set its ParitySSD
	// must agree.
	Parity int
	// CPU pins the client thread.
	CPU int
	// Class/RTPrio set the scheduling class (as for FIO jobs).
	Class  sched.Class
	RTPrio int
	// Runtime bounds the issue window.
	Runtime sim.Duration
	// QD is the number of outstanding striped requests (1 = closed loop).
	QD int
	// Tol enables degraded reads and (optionally) hedging; nil means a
	// failed sub-I/O fails the whole request, as in the RAID-0 reading of
	// the paper's Section I.
	Tol *Tolerance
	// LatLog records per-request (completion time, latency) samples, for
	// recovery-time series.
	LatLog bool
	Seed   uint64
}

// Result is the client-visible outcome.
type Result struct {
	Spec ClientSpec
	// Hist is the striped-request latency distribution.
	Hist   *stats.Histogram
	Ladder stats.Ladder
	// Requests completed.
	Requests int64
	// SubIOs completed (including parity reads and late stragglers).
	SubIOs int64
	// StragglerSSD counts, per SSD, how often it was the last to answer.
	StragglerSSD map[int]int64
	// SubIOErrors counts data sub-I/Os that came back with a non-success
	// status (after any kernel-level retries).
	SubIOErrors int64
	// DegradedReads counts error-triggered parity reconstructions.
	DegradedReads int64
	// HedgedReads counts deadline-triggered speculative parity reads;
	// HedgeWins counts those that beat the straggler.
	HedgedReads int64
	HedgeWins   int64
	// HedgesSuppressed counts hedges (read and write) withheld because
	// the kernel reported overload: speculative duplicates are the first
	// load shed past the in-flight watermark.
	HedgesSuppressed int64
	// LateSubIOs counts sub-I/O completions that arrived after their
	// request had already been completed (hedge won) or abandoned.
	LateSubIOs int64
	// FailedRequests counts requests that could not be served: a data
	// sub-I/O failed with no parity configured, or two members (or the
	// parity path itself) failed. Their latency is not in Hist.
	FailedRequests int64

	// Write-workload counters (zero for WorkloadRead).
	//
	// RMWReads counts phase-1 reads (old data, old parity, peer reads for
	// reconstruction); DataWrites/ParityWrites count phase-2 writes
	// including hedge duplicates.
	RMWReads     int64
	DataWrites   int64
	ParityWrites int64
	// DegradedWrites completed without a data write landing: the new data
	// exists only as parity until rebuild. ReconstructWrites recomputed
	// parity from the peers because the old data was unreadable.
	// ParityLogWrites routed around a dead data member at issue or via
	// hedge; UnprotectedWrites landed the data with no parity update.
	DegradedWrites    int64
	ReconstructWrites int64
	ParityLogWrites   int64
	UnprotectedWrites int64
	// HedgedWrites counts deadline-triggered write-path recoveries;
	// WriteHedgeWins counts those where the recovery path completed the
	// request. DupCompletions counts parity CQEs that arrived after the
	// parity was already durable — the hedge duplicate and its original
	// both landing, safely, because parity writes are idempotent.
	HedgedWrites   int64
	WriteHedgeWins int64
	DupCompletions int64
	// Suspicions counts members marked suspect after a timeout/abort;
	// Probes counts the periodic optimistic RMWs sent to a suspect member
	// to notice recovery.
	Suspicions int64
	Probes     int64
	// Log holds per-request samples when ClientSpec.LatLog is set.
	Log     *stats.LatLog
	Runtime sim.Duration
}

// Client is a running striped-read workload.
type Client struct {
	spec ClientSpec
	k    *kernel.Kernel
	eng  *sim.Engine
	task *sched.Task
	rnd  *rng.Stream

	res       Result
	start     sim.Time
	deadline  sim.Time
	inflight  int
	completed []completedReq
	done      bool
	onDone    func(*Result)

	// freeReqs recycles read-request carriers (see request.holds); a
	// plain slice, like the kernel's carrier freelists, so reuse order is
	// deterministic.
	freeReqs []*request
	// Thread-burst callbacks, bound once in New.
	issueWindowFn func()
	reapAllFn     func()

	// hedgeHist records only requests served without parity help (reads)
	// or on the pure RMW path (writes): hedging at a quantile of the
	// overall distribution would be self-referential — during an outage
	// every request completes at hedge latency, dragging the hedge delay
	// upward without bound.
	hedgeHist *stats.Histogram

	// suspect members are routed around (writes only): a timeout/abort
	// marks the member, any successful completion from it clears it, and
	// every probeInterval-th routed-around request probes it optimistically.
	// Dense slices indexed by SSD id — the write hot path consults them
	// on every request.
	suspect  []bool
	probeGap []int

	// stragglers accumulates per-SSD last-to-answer counts densely on
	// the completion path; Result.StragglerSSD is materialized from it
	// once at drain.
	stragglers []int64

	maxLBA int64
}

// completedReq is what reapAll needs from a finished request, read or
// write: both workloads drain through the same client-thread reap burst.
type completedReq interface {
	reqFailed() bool
	reqIssuedAt() sim.Time
	// cleanSample reports whether the request's latency may calibrate the
	// hedge delay (served without any recovery path).
	cleanSample() bool
	// reaped tells the request the client thread is done with it.
	reaped()
}

// request tracks one striped request's fan-out and its recovery state.
// Carriers are pooled per client with their callbacks bound once, so the
// striped-read path allocates nothing in steady state.
type request struct {
	c        *Client
	issuedAt sim.Time
	lba      int64
	// pendingMask has one bit per stripe position still outstanding
	// (first 64 members only): when one sub-I/O remains, it names the
	// straggler, so the adaptive hedge can use that drive's own deadline.
	pendingMask uint64
	remaining   int  // data sub-I/Os outstanding
	lastSSD     int  // last member to answer successfully
	failed      bool // unrecoverable: ≥2 members (or parity) failed
	// usedParity: the one reconstruction slot is taken (degraded or hedge).
	usedParity    bool
	parityPending bool
	done          bool

	// holds counts what still owes this carrier a visit: the client's
	// reap, each outstanding sub-I/O and parity read (stragglers after a
	// hedge win included). The last release returns it to the freelist.
	// The hedge deadline takes no hold: finish and useParity cancel it,
	// and the reap hold outlives finish, so a carrier is never free
	// while its hedge is armed. A callback that never comes (a command
	// dropped with no timeout policy armed) leaves the carrier garbage.
	holds int

	// hedge is the carrier's hedge deadline, re-armed per request. A
	// deadline the request outlives is canceled rather than left to fire
	// as a no-op event.
	hedge *sim.Timer

	subFns        []kernel.Receiver // one per stripe position
	degradedFn    kernel.Receiver
	hedgeParityFn kernel.Receiver
	hedgeFireFn   func()
}

func (r *request) reqFailed() bool       { return r.failed }
func (r *request) reqIssuedAt() sim.Time { return r.issuedAt }
func (r *request) cleanSample() bool     { return !r.usedParity }
func (r *request) reaped()               { r.release() }

// newReq allocates a carrier and binds its callbacks. It is separate from
// getReq so the per-position closures capture this function's r, not
// getReq's, which would otherwise move to the heap on every call.
// Every completion callback releases its hold after handling.
func (c *Client) newReq() *request {
	r := &request{c: c} //afalint:allow hotalloc -- freelist miss only; amortized across carrier reuses
	r.subFns = make([]kernel.Receiver, len(c.spec.Stripe))
	for i := range r.subFns {
		r.subFns[i] = kernel.ReceiverFunc(func(comp *kernel.Completion) { r.subDone(i, comp); r.release() }) //afalint:allow hotalloc -- stage callback bound once per pooled carrier
	}
	r.degradedFn = kernel.ReceiverFunc(r.degradedDone) //afalint:allow hotalloc -- stage callback bound once per pooled carrier
	r.hedgeParityFn = kernel.ReceiverFunc(r.hedgeDone) //afalint:allow hotalloc -- stage callback bound once per pooled carrier
	r.hedgeFireFn = r.hedgeFire                        //afalint:allow hotalloc -- stage callback bound once per pooled carrier
	r.hedge = c.eng.NewTimer()
	return r
}

// release drops one hold; the last one recycles the carrier.
func (r *request) release() {
	r.holds--
	if r.holds == 0 {
		c := r.c
		c.freeReqs = append(c.freeReqs, r)
	}
}

// getReq takes a read-request carrier off the freelist, or makes one.
func (c *Client) getReq(lba int64) *request {
	var r *request
	if n := len(c.freeReqs); n > 0 {
		r = c.freeReqs[n-1]
		c.freeReqs[n-1] = nil
		c.freeReqs = c.freeReqs[:n-1]
	} else {
		r = c.newReq()
	}
	n := len(c.spec.Stripe)
	r.issuedAt = c.eng.Now()
	r.lba = lba
	r.pendingMask = 0
	r.remaining = n
	r.lastSSD = -1
	r.failed = false
	r.usedParity = false
	r.parityPending = false
	r.done = false
	// One hold per sub-I/O plus the client's reap, taken before any
	// submit so no completion can release the carrier early.
	r.holds = n + 1
	return r
}

// New creates a client (call Start to run it).
func New(eng *sim.Engine, k *kernel.Kernel, spec ClientSpec) *Client {
	if len(spec.Stripe) == 0 {
		panic("raid: empty stripe set")
	}
	// Each member is a distinct, existing SSD: sub-I/O callbacks and the
	// straggler mask are per stripe position, and a repeated member would
	// make two positions race the same drive.
	seen := make([]bool, len(k.SSDs))
	for i, ssd := range spec.Stripe {
		if ssd < 0 || ssd >= len(k.SSDs) {
			panic(fmt.Sprintf("raid: stripe member %d is SSD %d, out of range [0,%d)", i, ssd, len(k.SSDs)))
		}
		if seen[ssd] {
			panic(fmt.Sprintf("raid: SSD %d appears twice in the stripe", ssd))
		}
		seen[ssd] = true
	}
	if spec.QD == 0 {
		spec.QD = 1
	}
	if spec.Runtime == 0 {
		spec.Runtime = sim.Second
	}
	if spec.Name == "" {
		spec.Name = fmt.Sprintf("stripe-%d", len(spec.Stripe))
	}
	c := &Client{
		spec: spec,
		k:    k,
		eng:  eng,
		rnd:  rng.NewLabeled(spec.Seed, "raid-"+spec.Name),
	}
	c.issueWindowFn = c.issueWindow
	c.reapAllFn = c.reapAll
	if t := spec.Tol; t != nil {
		if t.ParitySSD < 0 || t.ParitySSD >= len(k.SSDs) {
			panic(fmt.Sprintf("raid: parity SSD %d out of range", t.ParitySSD))
		}
		for _, ssd := range spec.Stripe {
			if ssd == t.ParitySSD {
				panic(fmt.Sprintf("raid: parity SSD %d is also a data member", ssd))
			}
		}
	}
	if spec.Workload == WorkloadWrite {
		if spec.Parity < 0 || spec.Parity >= len(k.SSDs) {
			panic(fmt.Sprintf("raid: write parity SSD %d out of range", spec.Parity))
		}
		for _, ssd := range spec.Stripe {
			if ssd == spec.Parity {
				panic(fmt.Sprintf("raid: write parity SSD %d is also a data member", ssd))
			}
		}
		if t := spec.Tol; t != nil && t.ParitySSD != spec.Parity {
			panic(fmt.Sprintf("raid: Tol.ParitySSD %d disagrees with Parity %d",
				t.ParitySSD, spec.Parity))
		}
		c.suspect = make([]bool, len(k.SSDs))
		c.probeGap = make([]int, len(k.SSDs))
	}
	c.res.Spec = spec
	c.res.Hist = stats.NewHistogram()
	c.hedgeHist = stats.NewHistogram()
	c.stragglers = make([]int64, len(k.SSDs))
	if spec.LatLog {
		c.res.Log = stats.NewLatLog()
	}
	c.maxLBA = k.SSDs[spec.Stripe[0]].Flash.LogicalSlices()
	c.task = k.Sched.NewTask("raid/"+spec.Name, spec.Class, spec.RTPrio, []int{spec.CPU})
	return c
}

// Start begins issuing striped requests; onDone fires when the runtime
// elapses and in-flight requests drain.
func (c *Client) Start(onDone func(*Result)) {
	c.onDone = onDone
	ramp := sim.Duration(c.rnd.Int63n(int64(200 * sim.Microsecond)))
	c.eng.Schedule(ramp, func() {
		c.start = c.eng.Now()
		c.deadline = c.start.Add(c.spec.Runtime)
		c.task.Exec(c.issueCost(), c.issueWindowFn)
		c.k.Sched.Wake(c.task)
	})
}

// issueCost is the submit burst for one request: reads batch one
// io_submit per stripe member; writes submit the two RMW pre-reads (the
// phase-2 writes and any recovery sub-I/Os issue from softirq context).
func (c *Client) issueCost() sim.Duration {
	n := len(c.spec.Stripe)
	if c.spec.Workload == WorkloadWrite {
		n = 2
	}
	return sim.Duration(n) * c.k.Costs().Submit
}

func (c *Client) issueWindow() {
	if c.eng.Now() >= c.deadline {
		// Requests that finished during this burst found the thread
		// running and left the reap to it.
		if len(c.completed) > 0 {
			c.task.Exec(c.reapCost(len(c.completed)), c.reapAllFn)
			return
		}
		c.finishIfDrained()
		return
	}
	for c.inflight < c.spec.QD {
		c.inflight++
		c.issueOne()
	}
	// Requests may have raced to completion while this thread was
	// submitting (QD > 1); reap them now rather than sleeping.
	if len(c.completed) > 0 {
		c.task.Exec(c.reapCost(len(c.completed)), c.reapAllFn)
	}
}

func (c *Client) reapCost(n int) sim.Duration {
	per := len(c.spec.Stripe)
	if c.spec.Workload == WorkloadWrite {
		// Up to four sub-I/O CQEs per RMW request.
		per = 4
	}
	return sim.Duration(n*per) * c.k.Costs().Complete
}

func (c *Client) issueOne() {
	switch c.spec.Workload {
	case WorkloadRead:
		c.issueRead()
	case WorkloadWrite:
		c.issueWrite()
	default:
		panic(fmt.Sprintf("raid: unknown workload %d", int(c.spec.Workload)))
	}
}

func (c *Client) issueRead() {
	lba := c.rnd.Int63n(c.maxLBA)
	req := c.getReq(lba)
	for i, ssd := range c.spec.Stripe {
		if i < 64 {
			req.pendingMask |= 1 << uint(i)
		}
		cmd := nvme.Command{Op: nvme.OpRead, LBA: lba, Bytes: nand.SliceBytes}
		c.k.SubmitIOTo(c.task.CPU(), ssd, cmd, req.subFns[i])
	}
}

// hedgeDelay is how long a request may age before the speculative parity
// read fires: the observed unhedged-request latency quantile once enough
// samples exist, floored at HedgeMin.
func (c *Client) hedgeDelay() sim.Duration {
	t := c.spec.Tol
	if c.hedgeHist.Count() >= t.MinSamples {
		if q := sim.Duration(c.hedgeHist.Quantile(t.HedgeQuantile)); q > t.HedgeMin {
			return q
		}
	}
	return t.HedgeMin
}

// hedgeDelayFor is hedgeDelay specialized to a known straggler: with
// Tolerance.Adaptive set and the drive's health tracker warm, the
// drive's own published deadline replaces the client-wide quantile.
func (c *Client) hedgeDelayFor(ssd int) sim.Duration {
	if c.spec.Tol.Adaptive {
		if h := c.k.Health(); h != nil {
			if d := h.HedgeDeadline(ssd); d > 0 {
				return d
			}
		}
	}
	return c.hedgeDelay()
}

// subDone runs in softirq context for the data sub-I/O at stripe
// position i.
func (r *request) subDone(i int, comp *kernel.Completion) {
	c := r.c
	if c.done {
		return
	}
	c.res.SubIOs++
	if r.done {
		// The hedge already completed (or the request already failed);
		// this straggler's answer is no longer needed.
		c.res.LateSubIOs++
		return
	}
	if comp.WakePenalty > 0 {
		c.task.AddPenalty(comp.WakePenalty)
	}
	r.remaining--
	if i < 64 {
		r.pendingMask &^= 1 << uint(i)
	}
	ssd := c.spec.Stripe[i]
	if comp.Status != nvme.StatusSuccess {
		c.res.SubIOErrors++
		if c.spec.Tol != nil && !r.usedParity {
			// Degraded read: reconstruct this member from parity + the
			// other members (already being read anyway).
			r.useParity(false)
		} else {
			// Second failure, or no parity: the stripe cannot be served.
			r.failed = true
		}
	} else {
		r.lastSSD = ssd
	}
	r.progress()
}

// useParity claims the request's one reconstruction slot and issues the
// parity read. hedge marks it speculative (straggler still outstanding).
func (r *request) useParity(hedge bool) {
	c := r.c
	r.usedParity = true
	r.parityPending = true
	r.hedge.Cancel()
	if hedge {
		c.res.HedgedReads++
	} else {
		c.res.DegradedReads++
	}
	cmd := nvme.Command{Op: nvme.OpRead, LBA: r.lba, Bytes: nand.SliceBytes}
	done := r.degradedFn
	if hedge {
		done = r.hedgeParityFn
	}
	r.holds++
	c.k.SubmitIOTo(c.task.CPU(), c.spec.Tol.ParitySSD, cmd, done)
}

func (r *request) degradedDone(comp *kernel.Completion) { r.parityDone(comp, false); r.release() }
func (r *request) hedgeDone(comp *kernel.Completion)    { r.parityDone(comp, true); r.release() }

// parityDone runs in softirq context for the reconstruction read.
func (r *request) parityDone(comp *kernel.Completion, hedge bool) {
	c := r.c
	if c.done {
		return
	}
	c.res.SubIOs++
	if r.done {
		c.res.LateSubIOs++
		return
	}
	if comp.WakePenalty > 0 {
		c.task.AddPenalty(comp.WakePenalty)
	}
	r.parityPending = false
	if comp.Status != nvme.StatusSuccess {
		// Reconstruction failed. A speculative hedge can still be saved
		// by its straggler; a degraded read cannot.
		if !hedge || r.remaining == 0 {
			r.failed = true
		}
	} else {
		r.lastSSD = c.spec.Tol.ParitySSD
		if hedge && r.remaining > 0 {
			// The parity path beat the straggler: complete now; the
			// straggler's eventual CQE is dropped as late. (The 4 KiB XOR
			// is sub-microsecond and folded into the reap burst.)
			c.res.HedgeWins++
			r.finish()
			return
		}
	}
	r.progress()
}

// progress completes the request when nothing is outstanding, and arms
// the hedge when only the straggler remains. It arms at most once per
// request: remaining reaches 1 in exactly one subDone, and any later
// call with one sub-I/O left comes from parityDone, after useParity.
func (r *request) progress() {
	c := r.c
	if r.remaining == 0 && !r.parityPending {
		r.finish()
		return
	}
	if r.remaining == 1 && !r.parityPending && !r.usedParity && !r.failed &&
		c.spec.Tol != nil && c.spec.Tol.HedgeQuantile > 0 {
		var delay sim.Duration
		if len(c.spec.Stripe) <= 64 && r.pendingMask != 0 {
			// Exactly one bit set: the straggler. Hedge at its deadline.
			delay = c.hedgeDelayFor(c.spec.Stripe[bits.TrailingZeros64(r.pendingMask)])
		} else {
			delay = c.hedgeDelay()
		}
		fireAt := r.issuedAt.Add(delay)
		if now := c.eng.Now(); fireAt < now {
			fireAt = now
		}
		r.hedge.ArmAt(fireAt, r.hedgeFireFn)
	}
}

// hedgeFire is the hedge deadline: fire the speculative parity read
// unless the kernel is overloaded. Every path that makes the hedge moot
// (finish, or useParity claiming the parity slot) cancels the deadline
// first, so it only ever fires for a live straggler.
func (r *request) hedgeFire() {
	c := r.c
	switch {
	case c.done || r.done || r.usedParity || r.remaining == 0:
		panic(fmt.Sprintf("raid: hedge deadline fired on a settled request (done %v, parity %v, remaining %d)",
			r.done, r.usedParity, r.remaining))
	case c.k.Overloaded():
		// Past the in-flight watermark the hedge is load we can
		// refuse: the straggler still answers eventually.
		c.res.HedgesSuppressed++
	default:
		r.useParity(true)
	}
}

// finish hands the request to the client thread for reaping. A sleeping
// thread needs a wake; a running or queued one reaps at its next burst
// boundary.
func (r *request) finish() {
	c := r.c
	r.done = true
	r.hedge.Cancel()
	if !r.failed && r.lastSSD >= 0 {
		c.stragglers[r.lastSSD]++
	}
	c.enqueueDone(r)
}

// enqueueDone hands a finished request (read or write) to the client
// thread's reap burst.
func (c *Client) enqueueDone(r completedReq) {
	c.completed = append(c.completed, r)
	if c.task.State() == sched.StateSleeping {
		c.task.Exec(c.reapCost(len(c.completed)), c.reapAllFn)
		c.k.Sched.Wake(c.task)
	}
}

func (c *Client) reapAll() {
	now := c.eng.Now()
	for _, r := range c.completed {
		if r.reqFailed() {
			// Errors surface to the client; their latency does not pollute
			// the served-request distribution.
			c.res.FailedRequests++
			c.inflight--
			r.reaped()
			continue
		}
		lat := int64(now.Sub(r.reqIssuedAt()))
		c.res.Hist.Record(lat)
		if r.cleanSample() {
			c.hedgeHist.Record(lat)
		}
		if c.res.Log != nil {
			c.res.Log.Add(int64(now), lat)
		}
		c.res.Requests++
		c.inflight--
		r.reaped()
	}
	c.completed = c.completed[:0]
	if now >= c.deadline {
		c.finishIfDrained()
		return
	}
	c.task.Exec(c.issueCost(), c.issueWindowFn)
}

func (c *Client) finishIfDrained() {
	if c.done || c.inflight > 0 {
		return
	}
	c.done = true
	c.res.Runtime = c.eng.Now().Sub(c.start)
	c.res.Ladder = stats.LadderOf(c.res.Hist)
	c.res.StragglerSSD = map[int]int64{} //afalint:allow hotmap -- materialized once at drain
	for ssd, n := range c.stragglers {
		if n > 0 {
			c.res.StragglerSSD[ssd] = n //afalint:allow hotmap -- materialized once at drain
		}
	}
	if c.onDone != nil {
		c.onDone(&c.res)
	}
}

// Run drives a set of clients to completion on the given engine.
func Run(eng *sim.Engine, k *kernel.Kernel, specs []ClientSpec) []*Result {
	results := make([]*Result, len(specs))
	remaining := len(specs)
	var maxDeadline sim.Time
	for i, spec := range specs {
		i := i
		cl := New(eng, k, spec)
		if d := eng.Now().Add(cl.spec.Runtime); d > maxDeadline {
			maxDeadline = d
		}
		cl.Start(func(r *Result) {
			results[i] = r
			remaining--
		})
	}
	grace := sim.Duration(0)
	for remaining > 0 {
		grace += 100 * sim.Millisecond
		eng.RunUntil(maxDeadline.Add(grace))
		if grace > 100*sim.Second {
			panic("raid: clients failed to drain")
		}
	}
	return results
}
