package nvme

// Tenant-owned I/O queue pairs: the NVMe-virtualization passthrough path.
//
// A QueuePair maps a tenant's SQ/CQ pair directly onto the controller,
// bypassing the kernel tier entirely (no block layer, no IRQ delivery, no
// kernel timeout/retry/abort machinery). The tenant rings the doorbell and
// reaps its own CQ. Kernel software latency goes to zero — and so do the
// kernel's protections: transient errors, media errors, and firmware
// stalls surface raw in the tenant's completions, which is exactly the
// tolerance interaction the iopath ablation measures.

// tenantQueueBase is the first queue ID handed to tenant-owned pairs; IDs
// below it belong to the kernel's per-CPU queues (cmd.Queue = CPU index).
const tenantQueueBase = 64

// QueuePairStats counts per-pair activity.
type QueuePairStats struct {
	Submitted int64
	Completed int64
	// Errors counts non-success CQEs reaped on this pair. There is no
	// kernel underneath a passthrough queue to retry them: the tenant
	// sees every one.
	Errors int64
	// Dropped counts commands the device lost while offline — at the
	// doorbell, in the SQ, or before the CQE was posted. No CQE will ever
	// arrive, and no host timeout fires on this path. Once the pair has
	// drained, Submitted = Completed + Dropped.
	Dropped int64
}

// QueuePair is one tenant-owned SQ/CQ pair.
type QueuePair struct {
	ID int
	c  *Controller

	stats QueuePairStats

	// free recycles completion carriers (see qpReq); a plain slice for
	// deterministic reuse order, like every freelist in the sim core.
	free []*qpReq
}

// CreateQueuePair allocates a tenant-owned pair with the next free queue
// ID. Pair creation is an admin-path operation (setup, not per-I/O).
func (c *Controller) CreateQueuePair() *QueuePair {
	if c.qpNext == 0 {
		c.qpNext = tenantQueueBase
	}
	qp := &QueuePair{ID: c.qpNext, c: c}
	c.qpNext++
	return qp
}

// qpReq carries one passthrough submission so the per-pair completion
// accounting runs without allocating a wrapper closure per I/O: it is the
// controller's Receiver for the command, and forwards the result to the
// tenant's.
type qpReq struct {
	q  *QueuePair
	to Receiver
}

func (q *QueuePair) getReq(to Receiver) *qpReq {
	var r *qpReq
	if n := len(q.free); n > 0 {
		r = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		r = &qpReq{q: q} //afalint:allow hotalloc -- freelist miss only; amortized across carrier reuses
	}
	r.to = to
	return r
}

// OnResult reaps one CQE into the pair's accounting and hands the raw
// result to the tenant. Non-success statuses pass straight through: there
// is no kernel retry on this path. A drop notice only counts the loss and
// releases the carrier: unlike the kernel path there is no timeout tier
// watching, so the tenant's I/O is simply gone.
func (r *qpReq) OnResult(res *Result) {
	q := r.q
	to := r.to
	// Release before the callback: to may submit the next command, and
	// the freed carrier is then reused immediately with no allocation.
	r.to = nil
	q.free = append(q.free, r)
	if res.Dropped {
		q.stats.Dropped++
		return
	}
	q.stats.Completed++
	if res.Status != StatusSuccess {
		q.stats.Errors++
	}
	to.OnResult(res)
}

// Submit rings the pair's doorbell. The command is tagged with the pair's
// queue ID and goes straight into the controller's staged pipeline; to
// receives the result when the tenant reaps the CQE from its own CQ (no
// IRQ, no kernel), and never for a command the device drops (see
// qpReq.OnResult). As with Controller.SubmitTo, the *Result is valid only
// during the call.
func (q *QueuePair) Submit(cmd Command, to Receiver) {
	cmd.Queue = q.ID
	q.stats.Submitted++
	q.c.SubmitTo(cmd, q.getReq(to))
}

// Stats returns a copy of the per-pair counters.
func (q *QueuePair) Stats() QueuePairStats { return q.stats }
