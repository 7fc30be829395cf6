// Package irq models NVMe MSI-X interrupt delivery and the Linux IRQ
// balancer's interaction with it.
//
// As in the paper's testbed (Section III-C), every SSD exposes one I/O
// queue — and therefore one MSI-X vector — per logical CPU: 64 SSDs × 40
// CPUs = 2,560 vectors, irq(n,c). The completion for an I/O submitted on
// cpu(c) to nvme(n) arrives on vector (n,c); where its handler *executes*
// is the vector's effective affinity. The stock IRQ balancer re-spreads
// effective affinities without regard for the submitting CPU, so handlers
// frequently run on a remote CPU (the paper's irq(0,4) observed on
// cpu(30)), costing an IPI, an extra context switch, and cache pollution —
// and, because the balancer's placement differs per SSD, making per-SSD
// latency distributions diverge. Pinning every vector to its own CPU
// (procfs/tuna, Section IV-D) removes both effects.
package irq

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
)

// The calibrated interrupt-path costs.
const (
	// hardIRQ is the top-half handler's CPU time.
	hardIRQ = 1200 * sim.Nanosecond
	// softIRQ is the block-layer completion (bottom half) CPU time.
	softIRQ = 1500 * sim.Nanosecond
	// ipi is the inter-processor-interrupt cost when the handler must wake
	// a thread living on another CPU.
	ipi = 2 * sim.Microsecond
	// remoteWakePenalty is extra first-burst time for a thread woken from
	// a remote CPU (completion data structures are in the wrong cache).
	remoteWakePenalty = 7 * sim.Microsecond
	// crossSocketExtra is the additional cost when the remote CPU sits on
	// the other NUMA socket: the IPI crosses QPI and the cache lines are
	// remote-memory (the paper's stated future work on NUMA implications).
	crossSocketExtra = 1500 * sim.Nanosecond
	// crossSocketWakeExtra is the extra wake penalty for cross-socket
	// deliveries.
	crossSocketWakeExtra = 4 * sim.Microsecond
)

// balancePeriod is how often irqbalance re-spreads vectors (its daemon's
// default is 10 s).
const balancePeriod = 10 * sim.Second

// Delivery describes how one completion was delivered; the kernel package
// uses it to charge wake penalties, and the trace package records it.
type Delivery struct {
	SSD      int
	Queue    int // submitting CPU / queue index
	Executed int // CPU the handler actually ran on
	Remote   bool
	// CrossSocket reports that the handler ran on the other NUMA socket.
	CrossSocket bool
}

// Controller owns the vector table and the balancer.
type Controller struct {
	eng *sim.Engine
	sch *sched.Scheduler
	rnd *rng.Stream

	// eff[ssd][queue] is the effective CPU of vector irq(ssd,queue).
	eff [][]int
	// pinned marks vectors excluded from balancing.
	pinned [][]bool

	balancer       *sim.Ticker
	policy         Policy
	socketOf       []int
	local, remote  int64
	crossSocket    int64
	balancerPasses int64

	// OnDeliver, when set, observes every delivery (the trace package's
	// irq_handler_entry probe).
	OnDeliver func(Delivery)

	// freeReqs recycles delivery carriers (see delivReq); a plain slice
	// keeps reuse order deterministic.
	freeReqs []*delivReq
}

// delivReq carries one interrupt through its stolen-time window. Pooled
// with the fire callback bound once, so per-delivery traffic doesn't
// allocate a closure per interrupt.
type delivReq struct {
	c      *Controller
	d      Delivery
	done   func(Delivery)
	fireFn func()
}

// fire runs after the hardirq+softirq window: release first, then hand
// the delivery to the completion path (which may trigger further
// deliveries that reuse this carrier).
func (r *delivReq) fire() {
	c := r.c
	d, done := r.d, r.done
	r.done = nil
	c.freeReqs = append(c.freeReqs, r)
	done(d)
}

func (c *Controller) getReq(d Delivery, done func(Delivery)) *delivReq {
	var r *delivReq
	if n := len(c.freeReqs); n > 0 {
		r = c.freeReqs[n-1]
		c.freeReqs[n-1] = nil
		c.freeReqs = c.freeReqs[:n-1]
	} else {
		r = &delivReq{c: c} //afalint:allow hotalloc -- freelist miss only; amortized across carrier reuses
		r.fireFn = r.fire   //afalint:allow hotalloc -- fire callback bound once per pooled carrier
	}
	r.d = d
	r.done = done
	return r
}

// Policy selects the balancer algorithm.
type Policy int

const (
	// BalanceNaive is the stock irqbalance behaviour: spread vectors
	// evenly with no regard for the submitting CPU.
	BalanceNaive Policy = iota
	// BalanceAffine is the Section VI future-work prototype: the balancer
	// honours each vector's queue affinity, placing irq(n,c) on cpu(c) —
	// load is already even because queues are per-CPU, so nothing needs
	// to move.
	BalanceAffine
)

func (p Policy) String() string {
	if p == BalanceAffine {
		return "affinity-aware"
	}
	return "naive"
}

// Config assembles a Controller.
type Config struct {
	NumSSDs int
	NumCPUs int
	Seed    uint64
	// StartBalanced scatters initial effective affinities the way a boot
	// with irqbalance leaves them; false starts with ideal (pinned-like)
	// placement.
	StartBalanced bool
	// Policy selects the balancer algorithm (BalanceNaive by default).
	Policy Policy
	// SocketOf maps each logical CPU to its NUMA socket; when set,
	// cross-socket deliveries pay the cross-socket cost surcharges.
	SocketOf []int
}

// New builds the vector table. With StartBalanced the initial effective
// affinities are already scattered and the balancer daemon runs; Pin
// stops it.
func New(eng *sim.Engine, sch *sched.Scheduler, cfg Config) *Controller {
	if cfg.NumSSDs <= 0 || cfg.NumCPUs <= 0 {
		panic("irq: NumSSDs and NumCPUs must be positive")
	}
	c := &Controller{
		eng:      eng,
		sch:      sch,
		rnd:      rng.NewLabeled(cfg.Seed, "irqbalance"),
		policy:   cfg.Policy,
		socketOf: cfg.SocketOf,
	}
	c.eff = make([][]int, cfg.NumSSDs)
	c.pinned = make([][]bool, cfg.NumSSDs)
	for s := range c.eff {
		c.eff[s] = make([]int, cfg.NumCPUs)
		c.pinned[s] = make([]bool, cfg.NumCPUs)
		for q := range c.eff[s] {
			c.eff[s][q] = q
		}
	}
	if cfg.StartBalanced {
		c.spread()
		c.balancer = sim.NewTicker(eng, balancePeriod, func(sim.Time) {
			c.spread()
			c.balancerPasses++
		})
	}
	return c
}

// NumVectors reports the vector population (the paper's 2,560).
func (c *Controller) NumVectors() int { return len(c.eff) * len(c.eff[0]) }

// EffectiveCPU reports where vector irq(ssd,queue) currently executes.
func (c *Controller) EffectiveCPU(ssd, queue int) int { return c.eff[ssd][queue] }

// spread is one irqbalance pass. Under the naive policy it distributes
// vectors evenly over all CPUs with no regard for queue affinity; the
// affinity-aware policy returns every unpinned vector to its queue CPU.
func (c *Controller) spread() {
	if c.policy == BalanceAffine {
		for s := range c.eff {
			for q := range c.eff[s] {
				if !c.pinned[s][q] {
					c.eff[s][q] = q
				}
			}
		}
		return
	}
	ncpu := len(c.eff[0])
	next := c.rnd.Intn(ncpu)
	for s := range c.eff {
		for q := range c.eff[s] {
			if c.pinned[s][q] {
				continue
			}
			c.eff[s][q] = next
			next = (next + 1) % ncpu
			// Occasionally skip ahead so the layout is not a pure stripe.
			if c.rnd.Bool(0.1) {
				next = c.rnd.Intn(ncpu)
			}
		}
	}
}

// Pin sets irq(ssd,queue)'s effective affinity to its own queue CPU and
// shields it from the balancer (echo cpu > /proc/irq/N/smp_affinity).
func (c *Controller) Pin(ssd, queue int) {
	c.eff[ssd][queue] = queue
	c.pinned[ssd][queue] = true
}

// PinAll pins every vector of every SSD (the tuna-scripted fix of
// Section IV-D) and stops the balancer.
func (c *Controller) PinAll() {
	for s := range c.eff {
		for q := range c.eff[s] {
			c.Pin(s, q)
		}
	}
	if c.balancer != nil {
		c.balancer.Stop()
		c.balancer = nil
	}
}

// Deliver fires the completion interrupt for an I/O submitted on queue
// (== submitting CPU) of ssd. The hardirq and softirq run on the vector's
// effective CPU, stealing its time; done is then called with the delivery
// record so the caller can wake the waiting thread and charge remote
// penalties.
func (c *Controller) Deliver(ssd, queue int, done func(Delivery)) {
	c.DeliverN(ssd, queue, 1, done)
}

// DeliverN fires one interrupt covering n coalesced CQEs: one
// hardirq/softirq pair plus a small per-extra-CQE processing cost. done is
// called once; the caller fans out to the n waiting I/Os.
func (c *Controller) DeliverN(ssd, queue, n int, done func(Delivery)) {
	if ssd < 0 || ssd >= len(c.eff) {
		panic(fmt.Sprintf("irq: ssd %d out of range", ssd))
	}
	if queue < 0 || queue >= len(c.eff[ssd]) {
		panic(fmt.Sprintf("irq: queue %d out of range", queue))
	}
	if n < 1 {
		panic("irq: DeliverN with n < 1")
	}
	cpu := c.eff[ssd][queue]
	d := Delivery{SSD: ssd, Queue: queue, Executed: cpu, Remote: cpu != queue}
	if d.Remote && c.socketOf != nil && c.socketOf[cpu] != c.socketOf[queue] {
		d.CrossSocket = true
		c.crossSocket++
	}
	if d.Remote {
		c.remote++
	} else {
		c.local++
	}
	if c.OnDeliver != nil {
		c.OnDeliver(d)
	}
	cost := hardIRQ + softIRQ
	cost += sim.Duration(n-1) * perExtraCQE
	if d.Remote {
		cost += ipi
	}
	if d.CrossSocket {
		cost += crossSocketExtra
	}
	c.sch.CPU(cpu).Steal(cost, c.getReq(d, done).fireFn)
}

// perExtraCQE is the marginal softirq cost of each additional coalesced
// completion in a batch.
const perExtraCQE = 400 * sim.Nanosecond

// WakePenalty reports the extra dispatch cost the woken thread should be
// charged for this delivery (zero for local).
func (c *Controller) WakePenalty(d Delivery) sim.Duration {
	if !d.Remote {
		return 0
	}
	p := remoteWakePenalty
	if d.CrossSocket {
		p += crossSocketWakeExtra
	}
	return p
}

// Stats reports local/remote delivery counts and balancer activity.
func (c *Controller) Stats() (local, remote, balancerPasses int64) {
	return c.local, c.remote, c.balancerPasses
}

// CrossSocketDeliveries reports how many deliveries crossed the NUMA
// interconnect.
func (c *Controller) CrossSocketDeliveries() int64 { return c.crossSocket }
