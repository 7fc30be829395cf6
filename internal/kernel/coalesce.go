package kernel

import (
	"repro/internal/irq"
	"repro/internal/nvme"
	"repro/internal/sim"
)

// coalesceBatch is the NVMe interrupt coalescing batch size (the Set
// Features "Interrupt Coalescing" aggregation threshold): a queue's
// MSI-X interrupt is withheld until this many CQEs have accumulated or
// Config.Coalesce has elapsed since the first withheld CQE. The paper
// worries about the "interrupt storm coming from hundreds of SSDs"
// (Section I); coalescing trades completion latency for interrupt rate,
// and the ablation bench quantifies the trade.
const coalesceBatch = 4

// bootCoalescers builds the dense (ssd, queue) → coalescer table when
// coalescing is on: the per-CQE lookup on the hot path is a slice index,
// and every flush callback is bound once, here.
func (k *Kernel) bootCoalescers() {
	if k.coalesce <= 0 {
		return
	}
	ncpu := k.Sched.NumCPUs()
	k.coalescers = make([]*coalescer, len(k.SSDs)*ncpu)
	for i := range k.coalescers {
		cc := &coalescer{k: k, ssd: i / ncpu, queue: i % ncpu, timer: k.eng.NewTimer()}
		cc.flushFn = cc.flush
		k.coalescers[i] = cc
	}
}

// coalescer buffers CQEs for one (ssd, queue) pair.
type coalescer struct {
	k       *Kernel
	ssd     int
	queue   int
	pending []pendingCQE
	timer   *sim.Timer
	flushFn func() // c.flush bound once: the timer re-arms per batch
}

type pendingCQE struct {
	res nvme.Result
	to  sink
}

func (c *coalescer) add(res *nvme.Result, to sink) {
	c.pending = append(c.pending, pendingCQE{res: *res, to: to})
	if len(c.pending) >= coalesceBatch {
		c.flush()
		return
	}
	if !c.timer.Armed() {
		c.timer.Arm(c.k.coalesce, c.flushFn)
	}
}

func (c *coalescer) flush() {
	c.timer.Cancel()
	if len(c.pending) == 0 {
		return
	}
	// Hand the batch to a pooled carrier (its delivery callback is bound
	// once, at the freelist miss) and truncate the pending buffer in
	// place, so both slices reach a steady capacity and the flush path
	// stops allocating.
	d := c.k.getCoalDelivery()
	d.batch = append(d.batch[:0], c.pending...)
	c.pending = c.pending[:0]
	c.k.IRQ.DeliverN(c.ssd, c.queue, len(d.batch), d.onDelivFn)
}

// coalDelivery carries one coalesced CQE batch from DeliverN to its
// per-CQE completion callbacks.
type coalDelivery struct {
	k         *Kernel
	batch     []pendingCQE
	onDelivFn func(irq.Delivery)
}

func (k *Kernel) getCoalDelivery() *coalDelivery {
	if n := len(k.freeCoalDeliv); n > 0 {
		d := k.freeCoalDeliv[n-1]
		k.freeCoalDeliv[n-1] = nil
		k.freeCoalDeliv = k.freeCoalDeliv[:n-1]
		return d
	}
	d := &coalDelivery{k: k}   //afalint:allow hotalloc -- freelist miss only; amortized across carrier reuses
	d.onDelivFn = d.onDelivery //afalint:allow hotalloc -- stage callback bound once per pooled carrier
	return d
}

// onDelivery fans the batch out to its completion callbacks and recycles
// the carrier. The wake penalty is charged once per interrupt, not per
// CQE.
func (d *coalDelivery) onDelivery(del irq.Delivery) {
	k := d.k
	penalty := k.IRQ.WakePenalty(del)
	for i := range d.batch {
		p := &d.batch[i]
		to := p.to
		p.to = sink{}
		k.handOff(to, k.fillComp(&p.res, del, penalty))
		penalty = 0
	}
	d.batch = d.batch[:0]
	k.freeCoalDeliv = append(k.freeCoalDeliv, d)
}

// coalescerFor returns the coalescer of (ssd, queue) from the dense
// table built at boot.
func (k *Kernel) coalescerFor(ssd, queue int) *coalescer {
	return k.coalescers[ssd*k.Sched.NumCPUs()+queue]
}
