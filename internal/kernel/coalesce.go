package kernel

import (
	"repro/internal/irq"
	"repro/internal/nvme"
	"repro/internal/sim"
)

// Coalescing configures NVMe interrupt coalescing (the Set Features
// "Interrupt Coalescing" feature): the controller withholds the MSI-X
// interrupt until Threshold CQEs have accumulated on a queue or Timeout
// has elapsed since the first withheld CQE. The paper worries about the
// "interrupt storm coming from hundreds of SSDs" (Section I); coalescing
// trades completion latency for interrupt rate, and the ablation bench
// quantifies the trade.
type Coalescing struct {
	// Threshold is the batch size that forces an interrupt (0 disables
	// coalescing entirely).
	Threshold int
	// Timeout bounds how long a lone CQE waits (NVMe expresses it in
	// 100 µs increments; any positive duration is accepted here).
	Timeout sim.Duration
}

// Enabled reports whether coalescing is active.
func (c Coalescing) Enabled() bool { return c.Threshold > 1 && c.Timeout > 0 }

// SetCoalescing reconfigures interrupt coalescing (the Set Features
// admin command), (re)building the dense coalescer table when enabling.
// Must not be called with coalesced CQEs pending.
func (k *Kernel) SetCoalescing(c Coalescing) {
	k.coalesce = c
	k.coalescers = nil
	if !c.Enabled() {
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
	if len(c.pending) >= c.k.coalesce.Threshold {
		c.flush()
		return
	}
	if !c.timer.Armed() {
		c.timer.Arm(c.k.coalesce.Timeout, c.flushFn)
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
