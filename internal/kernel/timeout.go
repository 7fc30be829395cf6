// Host-side fault tolerance: per-command timeout, command abort, and
// bounded-exponential-backoff retry — the machinery real NVMe hosts live
// on (nvme_io_timeout / abort / requeue) and the seed repository lacked
// entirely. With the zero policy the submit path is byte-identical to the
// pre-fault-injection behaviour.

package kernel

import (
	"fmt"

	"repro/internal/nvme"
	"repro/internal/sim"
)

// TimeoutPolicy configures the host's per-command tolerance machinery.
// The zero value disables it: commands wait forever, statuses pass
// through, nothing is retried (the seed behaviour).
type TimeoutPolicy struct {
	// Timeout is the per-attempt completion deadline (nvme_io_timeout).
	// 0 disables the whole policy.
	Timeout sim.Duration
	// MaxRetries is how many times a timed-out or transiently-failed
	// command is re-issued before the error is surfaced.
	MaxRetries int
	// Backoff is the delay before the first retry; each subsequent retry
	// doubles it, capped at BackoffMax.
	Backoff    sim.Duration
	BackoffMax sim.Duration
	// AbortCost is the admin Abort command round-trip charged after a
	// timeout, before the retry clock starts.
	AbortCost sim.Duration

	// Budget > 0 arms per-drive retry budgets: each drive has a token
	// bucket of this capacity, one token per retry. A drive whose bucket
	// is empty gets no retry — the command surfaces immediately so the
	// RAID layer can reconstruct, instead of a retry storm amplifying
	// load against a dying device.
	Budget int
	// BudgetRefill is the per-token refill interval (lazy integer
	// refill; no drift). 0 with Budget > 0 means the budget never
	// refills.
	BudgetRefill sim.Duration

	// OverloadWatermark > 0 arms overload shedding: when in-flight
	// managed commands exceed it, the kernel reports Overloaded (the
	// RAID layer stops hedging) and widens per-attempt timeouts by
	// OverloadTimeoutScale. Hysteresis: the condition clears only once
	// depth falls below three quarters of the watermark.
	OverloadWatermark int
	// OverloadTimeoutScale multiplies Timeout while overloaded
	// (values < 2 are treated as 2).
	OverloadTimeoutScale int
}

// DefaultTimeoutPolicy returns the calibrated host tolerance knobs: a
// deadline far above the healthy p99.9999 (~1 ms at QD1) but far below a
// firmware stall, so timeouts fire only on genuinely sick devices.
func DefaultTimeoutPolicy() TimeoutPolicy {
	return TimeoutPolicy{
		Timeout:    4 * sim.Millisecond,
		MaxRetries: 5,
		Backoff:    500 * sim.Microsecond,
		BackoffMax: 8 * sim.Millisecond,
		AbortCost:  10 * sim.Microsecond,
	}
}

// check names the first field of the policy that is negative. Every
// field is a delay, a count or a threshold; a negative one would boot
// and then panic mid-run on a negative delay at the first retry or
// timeout, or quietly disable a budget or watermark check.
func (p TimeoutPolicy) check() error {
	for _, f := range [...]struct {
		name string
		v    sim.Duration
	}{
		{"Backoff", p.Backoff},
		{"BackoffMax", p.BackoffMax},
		{"AbortCost", p.AbortCost},
		{"BudgetRefill", p.BudgetRefill},
	} {
		if f.v < 0 {
			return fmt.Errorf("TimeoutPolicy.%s is negative (%v)", f.name, f.v)
		}
	}
	for _, f := range [...]struct {
		name string
		v    int
	}{
		{"MaxRetries", p.MaxRetries},
		{"Budget", p.Budget},
		{"OverloadWatermark", p.OverloadWatermark},
	} {
		if f.v < 0 {
			return fmt.Errorf("TimeoutPolicy.%s is negative (%d)", f.name, f.v)
		}
	}
	return nil
}

// Enabled reports whether the policy is armed.
func (p TimeoutPolicy) Enabled() bool { return p.Timeout > 0 }

// DefaultBackoffCap bounds the exponential retry delay when BackoffMax
// is left unset: uncapped doubling of a sim.Duration overflows int64
// after ~60 retries, turning a long retry chain into a negative delay
// (which the engine rejects by panic).
const DefaultBackoffCap = 8 * sim.Millisecond

// backoffFor returns the bounded exponential delay before retry attempt
// (attempt is 0-based: the delay after the first failure is Backoff).
// BackoffMax <= 0 caps at DefaultBackoffCap rather than doubling
// without bound.
func (p TimeoutPolicy) backoffFor(attempt int) sim.Duration {
	max := p.BackoffMax
	if max <= 0 {
		max = DefaultBackoffCap
	}
	d := p.Backoff
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= max {
			return max
		}
	}
	if d > max {
		d = max
	}
	return d
}

// IOStats counts the tolerance machinery's activity.
type IOStats struct {
	Timeouts        int64 // per-attempt deadlines that fired
	Aborts          int64 // abort admin commands issued
	Retries         int64 // commands re-issued
	LateCompletions int64 // CQEs that arrived for already-aborted attempts
	Exhausted       int64 // commands surfaced as errors after MaxRetries
	TransientErrors int64 // retryable device errors observed
	MediaErrors     int64 // permanent media errors surfaced

	// Per-op write-path slices of the counters above: the write fault
	// model (degraded writes, rebuild) needs to see how much of the
	// tolerance activity its writes caused.
	WriteTimeouts  int64
	WriteRetries   int64
	WriteExhausted int64

	// Adaptive-tolerance counters (PR 7). RetryBudgetExhausted counts
	// retries denied by an empty per-drive token bucket;
	// ShedToReconstruct counts the commands those denials surfaced early
	// (failing fast to the RAID layer's reconstruction path).
	// OverloadEntered counts transitions past the in-flight watermark.
	RetryBudgetExhausted int64
	ShedToReconstruct    int64
	OverloadEntered      int64

	// Class slices the submit/complete counters by QoS class for
	// open-loop tenant traffic (PR 8). Only I/O submitted through
	// SubmitIOClass is counted here; classless SubmitIO traffic
	// (closed-loop jobs, RAID internal I/O) leaves these untouched.
	Class [NumQoSClasses]ClassIOStats
}

// IOStats returns a copy of the tolerance counters.
func (k *Kernel) IOStats() IOStats { return k.iostats }

// Timeout reports the active policy.
func (k *Kernel) Timeout() TimeoutPolicy { return k.timeout }

// submitManaged runs one command under the timeout policy: each attempt
// races a deadline timer against the completion; timeouts abort and
// retry with bounded exponential backoff; retryable error statuses retry
// without the abort; permanent errors and successes are delivered with
// the retry count. A CQE arriving after its attempt was abandoned (the
// abort racing a late completion) is counted and dropped.
//
// State rides on two pooled carriers instead of per-attempt closures
// (which were the managed path's dominant allocation sites): mngReq holds
// the per-command state for the whole retry chain, attReq the per-attempt
// race between the deadline timer and the CQE.
func (k *Kernel) submitManaged(ssd int, cmd nvme.Command, done Receiver) {
	m := k.getMng(ssd, cmd, done)
	k.noteInflight(1)
	m.issue()
}

// mngReq is the per-command managed-path carrier: it lives from SubmitIOTo
// until the completion (or final failure) is surfaced, across every retry.
// cmd.Queue is the submitting CPU.
type mngReq struct {
	k       *Kernel
	ssd     int
	cmd     nvme.Command
	attempt int
	first   sim.Time
	done    Receiver

	retryFn func() // bound once: re-issue after backoff
}

// attReq is the per-attempt carrier racing the deadline timer against the
// device CQE. It goes back to the freelist exactly once. A CQE before the
// deadline releases it at once. Otherwise it waits for two things: the
// abort round-trip, once the deadline fired, and the device being done
// with the command, by a late CQE or by an offline drive's drop notice.
// Whichever comes second releases it. A dropped command's deadline still
// fires: the host learns of the loss only by timing out.
type attReq struct {
	k *Kernel
	m *mngReq

	settled  bool       // the race is decided (timeout or completion)
	aborting bool       // timeout fired, abort round-trip still pending
	devDone  bool       // no CQE will come: it arrived late, or the command was dropped
	timer    *sim.Timer // deadline, re-armed per attempt and canceled on completion

	timeoutFn func()
	abortFn   func()
}

func (k *Kernel) getMng(ssd int, cmd nvme.Command, done Receiver) *mngReq {
	var m *mngReq
	if n := len(k.freeMng); n > 0 {
		m = k.freeMng[n-1]
		k.freeMng[n-1] = nil
		k.freeMng = k.freeMng[:n-1]
	} else {
		m = &mngReq{k: k}   //afalint:allow hotalloc -- freelist miss only; amortized across carrier reuses
		m.retryFn = m.issue //afalint:allow hotalloc -- stage callback bound once per pooled carrier
	}
	m.ssd = ssd
	m.cmd = cmd
	m.attempt = 0
	m.first = k.eng.Now()
	m.done = done
	return m
}

func (k *Kernel) putMng(m *mngReq) {
	m.done = nil
	k.freeMng = append(k.freeMng, m)
}

func (k *Kernel) getAtt(m *mngReq) *attReq {
	var a *attReq
	if n := len(k.freeAtt); n > 0 {
		a = k.freeAtt[n-1]
		k.freeAtt[n-1] = nil
		k.freeAtt = k.freeAtt[:n-1]
	} else {
		a = &attReq{k: k}       //afalint:allow hotalloc -- freelist miss only; amortized across carrier reuses
		a.timeoutFn = a.timeout //afalint:allow hotalloc -- stage callback bound once per pooled carrier
		a.abortFn = a.abort     //afalint:allow hotalloc -- stage callback bound once per pooled carrier
		a.timer = k.eng.NewTimer()
	}
	a.m = m
	a.settled = false
	a.aborting = false
	a.devDone = false
	return a
}

// putAtt recycles an attempt carrier. Its timer is never armed here:
// every release path either canceled the deadline (onComp) or runs after
// it fired (timeout → abort, or a late CQE or drop notice), so the next
// attempt cannot inherit a stale deadline.
func (k *Kernel) putAtt(a *attReq) {
	a.m = nil
	k.freeAtt = append(k.freeAtt, a)
}

// issue starts one attempt: arm the deadline, ring the doorbell. It is
// also the bound backoff-retry callback (m.retryFn).
func (m *mngReq) issue() {
	k := m.k
	a := k.getAtt(m)
	a.timer.Arm(k.attemptTimeout(), a.timeoutFn)
	k.submitOnce(m.ssd, m.cmd, sink{att: a})
}

// attemptTimeout is the effective per-attempt deadline: the policy's
// Timeout, widened while the kernel is overloaded so timeout/retry
// traffic does not feed the very queue depth that caused it.
func (k *Kernel) attemptTimeout() sim.Duration {
	to := k.timeout.Timeout
	if k.overloaded {
		s := k.timeout.OverloadTimeoutScale
		if s < 2 {
			s = 2
		}
		to *= sim.Duration(s)
	}
	return to
}

// noteInflight tracks managed-command depth and the overload latch:
// entered above the watermark, cleared below three quarters of it.
func (k *Kernel) noteInflight(delta int) {
	k.inflight += delta
	w := k.timeout.OverloadWatermark
	if w <= 0 {
		return
	}
	if !k.overloaded && k.inflight > w {
		k.overloaded = true
		k.iostats.OverloadEntered++
	} else if k.overloaded && k.inflight <= w*3/4 {
		k.overloaded = false
	}
}

// takeRetryToken consumes one retry token from the drive's bucket,
// lazily refilling first (integer arithmetic: the refill instant
// advances by whole tokens, so no drift accumulates).
func (k *Kernel) takeRetryToken(ssd int) bool {
	b := &k.retryBuckets[ssd]
	if r := k.timeout.BudgetRefill; r > 0 {
		if n := int64(k.eng.Now().Sub(b.last) / r); n > 0 {
			b.tokens += n
			if max := int64(k.timeout.Budget); b.tokens > max {
				b.tokens = max
			}
			b.last = b.last.Add(sim.Duration(n) * r)
		}
	}
	if b.tokens <= 0 {
		return false
	}
	b.tokens--
	return true
}

// retryBucket is one drive's retry-budget state.
type retryBucket struct {
	tokens int64
	last   sim.Time // refill clock, advanced by whole tokens only
}

// timeout is the attempt's deadline firing: count, abort, then (after the
// abort round-trip) retry or surface. The aborted attempt's CQE, should it
// still arrive, is dropped in onComp.
func (a *attReq) timeout() {
	if a.settled {
		return
	}
	a.settled = true
	a.aborting = true
	k, m := a.k, a.m
	k.iostats.Timeouts++
	k.iostats.Aborts++
	if m.cmd.Op == nvme.OpWrite {
		k.iostats.WriteTimeouts++
	}
	if k.health != nil {
		k.health.ObserveTimeout(m.ssd)
	}
	k.eng.Schedule(k.timeout.AbortCost, a.abortFn)
}

// abort is the admin Abort round-trip completing. The attempt carrier can
// only be released here if no CQE can come any more (a late one already
// arrived, or the command was dropped); otherwise it stays out of the
// freelist until the CQE or the drop notice shows up.
func (a *attReq) abort() {
	k, m := a.k, a.m
	a.aborting = false
	if a.devDone {
		k.putAtt(a)
	} else {
		// The device may still post this attempt's CQE or drop notice
		// much later, after m has moved on (or been recycled): drop the
		// back-pointer now so the straggler only touches per-attempt state.
		a.m = nil
	}
	// The synthesized abort is a hand-off like a CQE's: it fills the
	// kernel's one Completion, never a stack value, whose address would
	// escape through the receiver and allocate per abort.
	c := k.claimComp()
	*c = Completion{
		Result: nvme.Result{
			Cmd: m.cmd, SubmittedAt: m.first, Status: nvme.StatusAborted,
		},
		Status:   nvme.StatusAborted,
		TimedOut: true,
	}
	m.retryOrFail(c)
	k.handing = false
}

// onComp is the attempt's CQE landing on the host. comp is the kernel's
// one Completion, only read or amended in place on its way to the
// caller's receiver; it does not outlive the call.
func (a *attReq) onComp(comp *Completion) {
	k := a.k
	if a.settled {
		// The abort raced a completion that was already in flight.
		k.iostats.LateCompletions++
		if a.aborting {
			// The abort round-trip still needs this carrier; it releases it.
			a.devDone = true
			return
		}
		k.putAtt(a)
		return
	}
	a.settled = true
	a.timer.Cancel()
	m := a.m
	k.putAtt(a)
	if k.health != nil {
		// Per-attempt service latency: Result.SubmittedAt is still
		// this attempt's submit instant (overwritten with first only
		// on delivery below), so backoff gaps don't pollute the EWMA.
		k.health.Observe(m.ssd, k.eng.Now().Sub(comp.Result.SubmittedAt), comp.Status)
	}
	if comp.Status.Retryable() {
		k.iostats.TransientErrors++
		m.retryOrFail(comp)
		return
	}
	if comp.Status == nvme.StatusMediaError {
		k.iostats.MediaErrors++
	}
	m.deliver(comp)
}

// onDrop is the device's notice that it lost the attempt's command: no
// CQE will come. It is handled like a late CQE, without counting one.
// An attempt still racing its deadline, or with its abort pending, is
// released by abort; an abandoned one only waited for this notice.
func (a *attReq) onDrop() {
	if a.settled && !a.aborting {
		a.k.putAtt(a)
		return
	}
	a.devDone = true
}

// deliver surfaces the final outcome and retires the command carrier.
func (m *mngReq) deliver(comp *Completion) {
	k := m.k
	// End-to-end latency spans every attempt: report the first
	// submission instant, not the final attempt's.
	comp.Result.SubmittedAt = m.first
	comp.Retries = m.attempt
	k.noteInflight(-1)
	done := m.done
	k.putMng(m)
	done.OnCompletion(comp)
}

// retryOrFail re-issues the command after backoff, or surfaces failed
// when attempts are exhausted — or immediately when the drive's retry
// budget is, so a dying drive sheds its retry storm to the RAID layer's
// reconstruction path instead of amplifying load.
func (m *mngReq) retryOrFail(failed *Completion) {
	k := m.k
	if m.attempt >= k.timeout.MaxRetries {
		k.iostats.Exhausted++
		if m.cmd.Op == nvme.OpWrite {
			k.iostats.WriteExhausted++
		}
		failed.DeliveredAt = k.eng.Now()
		m.deliver(failed)
		return
	}
	if k.retryBuckets != nil && !k.takeRetryToken(m.ssd) {
		k.iostats.RetryBudgetExhausted++
		k.iostats.ShedToReconstruct++
		failed.DeliveredAt = k.eng.Now()
		m.deliver(failed)
		return
	}
	k.iostats.Retries++
	if m.cmd.Op == nvme.OpWrite {
		k.iostats.WriteRetries++
	}
	if k.health != nil {
		k.health.ObserveRetry(m.ssd)
	}
	backoff := k.timeout.backoffFor(m.attempt)
	m.attempt++
	k.eng.Schedule(backoff, m.retryFn)
}
