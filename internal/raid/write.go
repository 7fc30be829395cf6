// The RAID small-write path: every random write is a read-modify-write
// parity update (new parity = old parity ⊕ old data ⊕ new data), so one
// client write costs four sub-I/Os — the classic RAID-5 small-write
// penalty. Under a failed member the write degrades:
//
//   - reconstruct-then-write: the old data is unreadable (media error)
//     but the member answers — read every peer, recompute parity from
//     scratch, write data + parity;
//   - parity-only logging: the member is dead (timeout/abort) — read the
//     peers, write only the new parity; the new data exists solely as
//     parity until rebuild restores the member;
//   - unprotected: the *parity* path is dead — land the data with no
//     redundancy rather than block behind the timeout ladder.
//
// Tolerance mirrors the read path's tail-at-scale story: a hedge timer
// calibrated on the clean-RMW latency histogram (never on recovered
// requests — the self-reference fix) switches a stuck request onto a
// recovery path, and stuck parity writes are re-issued as idempotent
// duplicates with duplicate-completion suppression so the hedge and its
// original can both land safely. Members that time out are marked
// suspect and routed around, with a periodic optimistic probe to notice
// recovery without a management plane.

package raid

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/nvme"
	"repro/internal/sim"
)

// writeMode is the path a small write takes through the stripe.
type writeMode int

const (
	// modeRMW is the healthy small write: read old data + old parity,
	// then write new data + new parity.
	modeRMW writeMode = iota
	// modeReconstruct recomputes parity from the peers because the old
	// data was unreadable; data and parity are both written.
	modeReconstruct
	// modeParityLog writes only parity — the data member is missing.
	modeParityLog
	// modeUnprotected writes only data — the parity path is missing.
	modeUnprotected
)

// probeInterval is how many consecutive requests routed around a suspect
// member trigger one optimistic probe of it.
const probeInterval = 16

// writeReq tracks one RMW request through its two phases and any
// mid-flight mode switches.
type writeReq struct {
	c        *Client
	issuedAt sim.Time
	lba      int64
	target   int
	mode     writeMode

	// Phase 1: pre-reads. readsLeft tracks only the *active* read set —
	// a mode switch re-issues reads and strands the old ones, whose CQEs
	// are then counted late.
	readsLeft   int
	oldDataDone bool
	peersIssued bool

	// Phase 2: writes. parityInFlight counts outstanding parity attempts
	// (the hedge duplicate makes it 2); parityLanded is the idempotent
	// "durable" latch that suppresses duplicate completions.
	writing        bool
	dataPending    bool
	dataLanded     bool
	parityInFlight int
	parityLanded   bool

	hedged bool // the one hedge action was taken
	clean  bool // completed on the pure RMW path: a calibration sample
	failed bool
	done   bool
}

func (r *writeReq) reqFailed() bool       { return r.failed }
func (r *writeReq) reqIssuedAt() sim.Time { return r.issuedAt }
func (r *writeReq) cleanSample() bool     { return r.clean }
func (r *writeReq) reaped()               {}

// deadCompletion reports whether a completion indicates a missing member
// (the command timed out or was aborted) rather than a live device
// returning an error.
func deadCompletion(comp *kernel.Completion) bool {
	return comp.TimedOut || comp.Status == nvme.StatusAborted
}

func (c *Client) markSuspect(ssd int) {
	if c.spec.Tol == nil || c.suspect == nil || c.suspect[ssd] {
		return
	}
	c.suspect[ssd] = true
	c.res.Suspicions++
}

func (c *Client) clearSuspect(ssd int) {
	if c.suspect == nil || !c.suspect[ssd] {
		return
	}
	c.suspect[ssd] = false
	c.probeGap[ssd] = 0
}

// shouldProbe counts requests routed around the suspect member and
// elects every probeInterval-th one to try it anyway.
func (c *Client) shouldProbe(ssd int) bool {
	c.probeGap[ssd]++
	if c.probeGap[ssd] < probeInterval {
		return false
	}
	c.probeGap[ssd] = 0
	c.res.Probes++
	return true
}

// issueWrite starts one RMW request from the client thread's submit
// burst. Suspect members are routed straight to their degraded mode so a
// single dead device costs one hedge delay once, not per request.
func (c *Client) issueWrite() {
	lba := c.rnd.Int63n(c.maxLBA)
	target := c.spec.Stripe[int(c.rnd.Int63n(int64(len(c.spec.Stripe))))]
	r := &writeReq{c: c, issuedAt: c.eng.Now(), lba: lba, target: target}
	if c.spec.Tol != nil {
		// A probe request ignores the suspicion and runs the full RMW; a
		// success from the suspect member clears it.
		if c.suspect[target] {
			if !c.shouldProbe(target) {
				r.mode = modeParityLog
				c.res.ParityLogWrites++
			}
		} else if c.suspect[c.spec.Parity] {
			if !c.shouldProbe(c.spec.Parity) {
				r.mode = modeUnprotected
			}
		}
	}
	switch r.mode {
	case modeRMW:
		r.readsLeft = 2
		r.submitRead(r.target, r.oldDataRead)
		r.submitRead(c.spec.Parity, r.oldParityRead)
	case modeParityLog:
		r.issuePeerReads()
	case modeUnprotected:
		r.startWrites()
	default:
		panic(fmt.Sprintf("raid: write issued in mode %d", int(r.mode)))
	}
	if t := c.spec.Tol; t != nil && t.HedgeQuantile > 0 {
		r.armHedge()
	}
}

func (r *writeReq) submitRead(ssd int, done kernel.ReceiverFunc) {
	c := r.c
	c.res.RMWReads++
	cmd := nvme.Command{Op: nvme.OpRead, LBA: r.lba, Bytes: 4096}
	c.k.SubmitIOTo(c.task.CPU(), ssd, cmd, done)
}

// stale reports (and accounts) a phase-1 CQE whose request has moved on —
// a mode switch or hedge already stranded this read. A successful answer
// from a suspect member still clears the suspicion.
func (r *writeReq) stale(ssd int, comp *kernel.Completion) bool {
	c := r.c
	if c.done {
		return true
	}
	c.res.SubIOs++
	if r.done || r.writing || r.peersIssued {
		c.res.LateSubIOs++
		if comp.Status == nvme.StatusSuccess {
			c.clearSuspect(ssd)
		}
		return true
	}
	if comp.WakePenalty > 0 {
		c.task.AddPenalty(comp.WakePenalty)
	}
	return false
}

// oldDataRead runs in softirq context for the RMW old-data pre-read.
func (r *writeReq) oldDataRead(comp *kernel.Completion) {
	c := r.c
	if r.stale(r.target, comp) {
		return
	}
	if comp.Status == nvme.StatusSuccess {
		c.clearSuspect(r.target)
		r.oldDataDone = true
		r.readsLeft--
		if r.readsLeft == 0 {
			r.startWrites()
		}
		return
	}
	c.res.SubIOErrors++
	if c.spec.Tol == nil {
		r.failed = true
		r.finish()
		return
	}
	if deadCompletion(comp) {
		// The member is gone: log the write through parity only.
		c.markSuspect(r.target)
		r.mode = modeParityLog
		c.res.ParityLogWrites++
	} else {
		// The member is alive but the old data is unreadable: recompute
		// parity from the peers and overwrite both.
		r.mode = modeReconstruct
		c.res.ReconstructWrites++
	}
	r.issuePeerReads()
}

// oldParityRead runs in softirq context for the RMW old-parity pre-read.
func (r *writeReq) oldParityRead(comp *kernel.Completion) {
	c := r.c
	if r.stale(c.spec.Parity, comp) {
		return
	}
	if comp.Status == nvme.StatusSuccess {
		c.clearSuspect(c.spec.Parity)
		r.readsLeft--
		if r.readsLeft == 0 {
			r.startWrites()
		}
		return
	}
	c.res.SubIOErrors++
	if c.spec.Tol == nil {
		r.failed = true
		r.finish()
		return
	}
	// Parity unreadable: give up on parity maintenance for this request
	// and land the data unprotected. The old-data read, if still in
	// flight, is stranded and its CQE counted late.
	if deadCompletion(comp) {
		c.markSuspect(c.spec.Parity)
	}
	r.mode = modeUnprotected
	r.startWrites()
}

// issuePeerReads fans a reconstruction read out to every surviving data
// member (the target is skipped; parity is about to be overwritten).
func (r *writeReq) issuePeerReads() {
	c := r.c
	r.peersIssued = true
	n := 0
	for _, ssd := range c.spec.Stripe {
		if ssd == r.target {
			continue
		}
		ssd := ssd
		n++
		c.res.RMWReads++
		cmd := nvme.Command{Op: nvme.OpRead, LBA: r.lba, Bytes: 4096}
		c.k.SubmitIOTo(c.task.CPU(), ssd, cmd, kernel.ReceiverFunc(func(comp *kernel.Completion) {
			r.peerRead(ssd, comp)
		}))
	}
	r.readsLeft = n
	if n == 0 {
		// Width-1 stripe: nothing to reconstruct from.
		r.failed = true
		r.finish()
	}
}

// peerRead runs in softirq context for each reconstruction read.
func (r *writeReq) peerRead(ssd int, comp *kernel.Completion) {
	c := r.c
	if c.done {
		return
	}
	c.res.SubIOs++
	if r.done || r.writing {
		c.res.LateSubIOs++
		if comp.Status == nvme.StatusSuccess {
			c.clearSuspect(ssd)
		}
		return
	}
	if comp.WakePenalty > 0 {
		c.task.AddPenalty(comp.WakePenalty)
	}
	if comp.Status == nvme.StatusSuccess {
		c.clearSuspect(ssd)
		r.readsLeft--
		if r.readsLeft == 0 {
			r.startWrites()
		}
		return
	}
	c.res.SubIOErrors++
	if deadCompletion(comp) {
		c.markSuspect(ssd)
	}
	if r.mode == modeReconstruct {
		// The target is alive but reconstruction lost a peer: land the
		// data unprotected (leaving the old parity stale would be worse)
		// and let rebuild recompute parity later.
		r.mode = modeUnprotected
		r.startWrites()
		return
	}
	// Parity-log with a dead peer: two missing members, the stripe is
	// unreconstructable.
	r.failed = true
	r.finish()
}

func (r *writeReq) writeCmd() nvme.Command {
	return nvme.Command{Op: nvme.OpWrite, LBA: r.lba, Bytes: 4096}
}

// startWrites begins phase 2. Pending phase-1 reads, if any, are
// stranded (their CQEs count late).
func (r *writeReq) startWrites() {
	c := r.c
	r.writing = true
	switch r.mode {
	case modeRMW, modeReconstruct:
		r.dataPending = true
		c.res.DataWrites++
		c.k.SubmitIOTo(c.task.CPU(), r.target, r.writeCmd(), kernel.ReceiverFunc(r.dataWritten))
		r.submitParity(false)
	case modeParityLog:
		r.submitParity(false)
	case modeUnprotected:
		r.dataPending = true
		c.res.DataWrites++
		c.k.SubmitIOTo(c.task.CPU(), r.target, r.writeCmd(), kernel.ReceiverFunc(r.dataWritten))
	default:
		panic(fmt.Sprintf("raid: write phase 2 in mode %d", int(r.mode)))
	}
}

func (r *writeReq) submitParity(dup bool) {
	c := r.c
	r.parityInFlight++
	c.res.ParityWrites++
	c.k.SubmitIOTo(c.task.CPU(), c.spec.Parity, r.writeCmd(), kernel.ReceiverFunc(func(comp *kernel.Completion) {
		r.parityWritten(comp, dup)
	}))
}

// dataWritten runs in softirq context for the new-data write.
func (r *writeReq) dataWritten(comp *kernel.Completion) {
	c := r.c
	if c.done {
		return
	}
	c.res.SubIOs++
	if r.done {
		c.res.LateSubIOs++
		if comp.Status == nvme.StatusSuccess {
			c.clearSuspect(r.target)
		}
		return
	}
	if comp.WakePenalty > 0 {
		c.task.AddPenalty(comp.WakePenalty)
	}
	r.dataPending = false
	if comp.Status == nvme.StatusSuccess {
		r.dataLanded = true
		c.clearSuspect(r.target)
	} else {
		c.res.SubIOErrors++
		if c.spec.Tol == nil {
			r.failed = true
		} else if deadCompletion(comp) {
			c.markSuspect(r.target)
		}
	}
	r.settleWrites()
}

// parityWritten runs in softirq context for each parity write attempt
// (dup marks the hedge duplicate). Parity writes are idempotent: once
// parityLanded is set, any further successful CQE is suppressed as a
// duplicate completion.
func (r *writeReq) parityWritten(comp *kernel.Completion, dup bool) {
	c := r.c
	if c.done {
		return
	}
	c.res.SubIOs++
	if comp.Status == nvme.StatusSuccess && r.parityLanded {
		c.res.DupCompletions++
		if r.done {
			c.res.LateSubIOs++
		} else {
			r.parityInFlight--
			r.settleWrites()
		}
		return
	}
	if r.done {
		c.res.LateSubIOs++
		if comp.Status == nvme.StatusSuccess {
			c.clearSuspect(c.spec.Parity)
		}
		return
	}
	if comp.WakePenalty > 0 {
		c.task.AddPenalty(comp.WakePenalty)
	}
	r.parityInFlight--
	if comp.Status == nvme.StatusSuccess {
		r.parityLanded = true
		c.clearSuspect(c.spec.Parity)
		if dup {
			c.res.WriteHedgeWins++
		}
	} else {
		c.res.SubIOErrors++
		if c.spec.Tol == nil {
			r.failed = true
		} else if deadCompletion(comp) {
			c.markSuspect(c.spec.Parity)
		}
	}
	r.settleWrites()
}

// settleWrites completes the request once no phase-2 sub-I/O is
// outstanding, classifying the outcome by what actually landed.
func (r *writeReq) settleWrites() {
	if r.done || r.dataPending || r.parityInFlight > 0 {
		return
	}
	c := r.c
	if r.failed {
		r.finish()
		return
	}
	switch r.mode {
	case modeRMW, modeReconstruct:
		switch {
		case r.dataLanded && r.parityLanded:
			r.clean = r.mode == modeRMW && !r.hedged
		case r.parityLanded:
			// The data member failed mid-write; parity carries the delta.
			c.res.DegradedWrites++
		case r.dataLanded:
			// The parity write failed; the data is live but unprotected.
			c.res.UnprotectedWrites++
		default:
			r.failed = true
		}
	case modeParityLog:
		if r.parityLanded {
			c.res.DegradedWrites++
		} else {
			r.failed = true
		}
	case modeUnprotected:
		if r.dataLanded {
			c.res.UnprotectedWrites++
		} else {
			r.failed = true
		}
	default:
		panic(fmt.Sprintf("raid: write settled in mode %d", int(r.mode)))
	}
	r.finish()
}

func (r *writeReq) finish() {
	r.done = true
	r.c.enqueueDone(r)
}

// writeHedgeDelay is the RMW request's hedge deadline. The request
// touches two members (target data + parity); with adaptive tolerance
// each contributes its own tracker deadline and the hedge waits out the
// slower of the two — hedging an RMW at the faster member's deadline
// would duplicate work the other member is still on pace to finish.
func (r *writeReq) writeHedgeDelay() sim.Duration {
	c := r.c
	d := c.hedgeDelayFor(r.target)
	if p := c.hedgeDelayFor(c.spec.Parity); p > d {
		d = p
	}
	return d
}

// armHedge schedules the write-path hedge check at the clean-write
// latency quantile (same calibration as read hedging), or at the
// members' own deadlines under adaptive tolerance.
func (r *writeReq) armHedge() {
	c := r.c
	fireAt := r.issuedAt.Add(r.writeHedgeDelay())
	if now := c.eng.Now(); fireAt < now {
		fireAt = now
	}
	c.eng.ScheduleAt(fireAt, r.hedgeFire)
}

// rearm retries the hedge check one hedge-delay later: the request was in
// an ambiguous state (more than one sub-I/O dark) where no single
// recovery action is safe. The kernel timeout ladder bounds how long this
// can recur.
func (r *writeReq) rearm() {
	c := r.c
	c.eng.Schedule(r.writeHedgeDelay(), r.hedgeFire)
}

// hedgeFire runs when a request has outlived the clean-write quantile.
// Exactly one hedge action is taken per request:
//
//   - phase 1, old-data read straggling → mark suspect, parity-log;
//   - phase 1, old-parity read straggling → mark suspect, write
//     unprotected;
//   - phase 2, parity write straggling → re-issue it as an idempotent
//     duplicate, and if the data already landed arm an abandon fallback
//     that surfaces the write as unprotected rather than waiting out the
//     timeout ladder;
//   - phase 2, data write straggling with parity durable → complete
//     degraded now (parity carries the delta); the straggler's CQE is
//     suppressed as late.
func (r *writeReq) hedgeFire() {
	c := r.c
	if c.done || r.done || r.hedged || r.failed {
		return
	}
	if c.k.Overloaded() {
		// Shed the speculative action, not the request: re-check after
		// another hedge delay. The kernel timeout ladder still drives the
		// request to an outcome if overload persists.
		c.res.HedgesSuppressed++
		r.rearm()
		return
	}
	if !r.writing {
		if r.readsLeft != 1 || r.peersIssued {
			// Two pre-reads dark, or a reconstruction fan-out straggling:
			// no single member to route around.
			r.rearm()
			return
		}
		r.hedged = true
		c.res.HedgedWrites++
		if !r.oldDataDone {
			c.markSuspect(r.target)
			r.mode = modeParityLog
			c.res.ParityLogWrites++
			r.issuePeerReads()
		} else {
			c.markSuspect(c.spec.Parity)
			r.mode = modeUnprotected
			r.startWrites()
		}
		return
	}
	switch {
	case r.dataPending && r.parityInFlight > 0:
		r.rearm()
	case r.parityInFlight > 0:
		r.hedged = true
		c.res.HedgedWrites++
		r.submitParity(true)
		r.armAbandon()
	case r.dataPending && r.parityLanded:
		r.hedged = true
		c.res.HedgedWrites++
		c.res.WriteHedgeWins++
		c.markSuspect(r.target)
		c.res.DegradedWrites++
		r.finish()
	default:
		// Data straggling with no parity landed: nothing durable to fall
		// back on; the kernel timeout decides.
	}
}

// armAbandon gives the duplicated parity write one more hedge delay; if
// neither attempt has landed by then and the data is durable, the request
// completes as unprotected instead of blocking on the timeout ladder.
func (r *writeReq) armAbandon() {
	c := r.c
	if !r.dataLanded {
		return
	}
	c.eng.Schedule(c.hedgeDelay(), func() {
		if c.done || r.done || r.parityLanded || r.failed {
			return
		}
		c.markSuspect(c.spec.Parity)
		c.res.UnprotectedWrites++
		r.finish()
	})
}
