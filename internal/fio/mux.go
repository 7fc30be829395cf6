// Open-loop tenant multiplexer: fans thousands-to-millions of lightweight
// tenant streams onto the kernel submit path from a single timer wheel.
// No per-tenant goroutine, no per-tenant sched.Task, and — after the
// freelists warm up — no per-arrival allocation: tenants are values in
// fixed-size pages reached by index, wheel slots hold int32 tenant
// indices, and in-flight I/O state rides pooled muxReq carriers.
// Registering a tenant allocates only a new page every 256 tenants:
// its rng stream is the indexed child of the mux's labelled base
// stream, built in place. The tenants model a service
// frontend *outside* the simulated host (their submit CPUs index SQ/CQ
// pairs but burn no modeled CPU time), which is what makes the open-loop
// property real: arrivals keep coming at the offered rate no matter how
// far behind the array falls.
package fio

import (
	"fmt"
	"math"

	"repro/internal/kernel"
	"repro/internal/nand"
	"repro/internal/nvme"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// AdmitPolicy selects what happens to an arrival whose QoS class is out
// of admission tokens.
type AdmitPolicy int

const (
	// AdmitShed drops the arrival on the floor (load shedding).
	AdmitShed AdmitPolicy = iota
	// AdmitQueue parks the arrival in a bounded per-class FIFO; it is
	// admitted when tokens refill, with latency still measured from the
	// original intended arrival instant (no coordinated omission).
	// Queue overflow sheds.
	AdmitQueue
	// AdmitThrottle defers the arrival — and with it the tenant's whole
	// stream — until a token is available: backpressure rather than
	// loss. Latency is still measured from the first intended instant.
	AdmitThrottle
)

// ClassConfig is per-QoS-class admission control.
type ClassConfig struct {
	// Rate is the admitted I/O budget in I/Os per second. 0 disables
	// admission control for the class (everything is admitted); it
	// must be finite and not negative.
	Rate float64
	// Policy says what to do when the bucket is empty.
	Policy AdmitPolicy
	// QueueLimit bounds the AdmitQueue FIFO. Default (0) 1024.
	QueueLimit int
}

// TenantSpec describes one open-loop tenant stream.
type TenantSpec struct {
	SSD     int
	RW      RW
	BS      int // default one slice, nand.SliceBytes
	Class   kernel.QoSClass
	Arrival ArrivalSpec
}

// TenantStream is one lightweight open-loop workload source. Tenants
// live as values inside the Multiplexer's tenant pages.
type TenantStream struct {
	// immutable after AddTenant
	ssd       int32
	cpu       int32
	bs        int32
	class     kernel.QoSClass
	op        nvme.Opcode
	seq       bool
	maxLBA    int64
	lbaSlices int64
	arr       ArrivalSpec

	// per-tenant mutable state
	rnd      rng.Stream
	st       arrivalState
	nextAt   sim.Time // next intended (or deferred) arrival instant
	intended sim.Time // original intent of a throttled arrival
	nextSeq  int64
	deferred bool
	finished bool
}

// The timer wheel's shape.
const (
	// slotWidth is the timer-wheel granularity: arrivals are released in
	// batches at slot boundaries, so it bounds the release jitter added
	// to every intended arrival instant.
	slotWidth = 20 * sim.Microsecond
	// wheelSlots is the number of wheel slots (span = slotWidth ×
	// wheelSlots; longer gaps park across revolutions).
	wheelSlots = 512
)

// The tenant table's page shape: tenant i lives at slot
// i&tenantPageMask of page i>>tenantPageShift. A full table wastes at
// most one partly filled page, and growing it never copies a tenant.
const (
	tenantPageShift = 8
	tenantPageSize  = 1 << tenantPageShift
	tenantPageMask  = tenantPageSize - 1
)

// tenantPage is one fixed-size page of the tenant table.
type tenantPage [tenantPageSize]TenantStream

// MuxConfig configures a Multiplexer.
type MuxConfig struct {
	Name    string
	Runtime sim.Duration
	Seed    uint64
	// CPUs are the submit CPUs tenants round-robin across (they pick
	// the SQ/CQ pair; no modeled CPU time is charged). Default: all.
	// Each must index a scheduler CPU.
	CPUs []int
	// Class is per-QoS-class admission control; a zero ClassConfig
	// admits everything.
	Class [kernel.NumQoSClasses]ClassConfig
	// Phases collects a per-class blktrace-style phase decomposition.
	Phases bool
}

// ClassResult is the per-QoS-class slice of a mux run.
type ClassResult struct {
	Offered   int64 // arrivals generated by the arrival processes
	Admitted  int64 // arrivals submitted to the kernel
	Shed      int64 // arrivals dropped by AdmitShed
	Queued    int64 // arrivals that waited in the AdmitQueue FIFO
	QueueShed int64 // arrivals dropped on queue overflow (or at deadline)
	Throttled int64 // arrivals deferred at least once by AdmitThrottle
	Completed int64
	Errors    int64
	// Ladder is completion latency measured from the intended arrival
	// instant — queue wait and admission delay included.
	Ladder stats.Ladder
	// Phases is the per-class phase decomposition when MuxConfig.Phases
	// is set (media-backed completions only).
	Phases *PhaseReport
}

// MuxResult is the aggregate output of a Multiplexer run.
type MuxResult struct {
	Name    string
	Tenants int
	Runtime sim.Duration
	Class   [kernel.NumQoSClasses]ClassResult
	// Total is the all-classes completion-latency ladder.
	Total stats.Ladder
	// Offered/Admitted/Completed are sums over classes.
	Offered   int64
	Admitted  int64
	Completed int64
	Errors    int64
}

// Shed sums the arrivals dropped across classes: AdmitShed drops plus
// queue-overflow drops.
func (r *MuxResult) Shed() int64 {
	var n int64
	for c := range r.Class {
		n += r.Class[c].Shed + r.Class[c].QueueShed
	}
	return n
}

// Throttled sums the arrivals AdmitThrottle deferred across classes.
func (r *MuxResult) Throttled() int64 {
	var n int64
	for c := range r.Class {
		n += r.Class[c].Throttled
	}
	return n
}

// classState is the runtime admission state of one QoS class.
type classState struct {
	cfg      ClassConfig
	interval sim.Duration // ns per token; 0 = unlimited
	burst    int64
	tokens   int64
	lastFill sim.Time

	queue []queuedArrival // ring buffer, cap = QueueLimit
	qHead int
	qLen  int

	offered, admitted, shed, queuedN, queueShed, throttled, errors int64

	lat *stats.Histogram // intended-arrival-to-completion latency of successes
}

type queuedArrival struct {
	tenant   int32
	intended sim.Time
}

func (cs *classState) refill(now sim.Time) {
	if cs.interval <= 0 {
		return
	}
	n := int64(now.Sub(cs.lastFill)) / int64(cs.interval)
	if n <= 0 {
		return
	}
	cs.tokens += n
	if cs.tokens > cs.burst {
		cs.tokens = cs.burst
	}
	cs.lastFill = cs.lastFill.Add(sim.Duration(n) * cs.interval)
}

// muxReq is the pooled in-flight record for one admitted arrival, and
// the kernel's Receiver for its completion.
type muxReq struct {
	m        *Multiplexer
	class    kernel.QoSClass
	intended sim.Time
}

// Multiplexer fans every registered TenantStream onto the kernel submit
// path from one timer wheel. Single-threaded like everything inside the
// engine; all state is owned by the mux and advanced at slot ticks.
type Multiplexer struct {
	eng *sim.Engine
	k   *kernel.Kernel
	cfg MuxConfig

	// tenant i is m.tenant(i); n counts the registered tenants.
	pages []*tenantPage
	n     int
	live  int
	// base is the labelled stream every tenant's stream is an indexed
	// child of.
	base rng.Stream

	slots   [][]int32
	due     []int32
	cursor  int
	cursorT sim.Time // start instant of the cursor slot
	tick    *sim.Timer
	tickFn  func()

	classes [kernel.NumQoSClasses]classState

	totalHist *stats.Histogram
	phases    []PhaseReport

	inflight int
	freeReqs []*muxReq

	started  bool
	ticking  bool
	finished bool
	deadline sim.Time
	startAt  sim.Time
	onDone   func(*MuxResult)
	res      MuxResult
}

// check names the first setting of cfg that cannot describe a run on
// a host with ncpu CPUs. Each would otherwise boot and then fail deep
// in the run (an out-of-range CPU in irq at the first completion, an
// unknown policy at the first out-of-tokens arrival) or quietly stand
// for a default (a negative runtime or queue limit) or for no
// admission control at all (a negative or NaN rate; an infinite one
// has no token interval).
func (cfg *MuxConfig) check(ncpu int) error {
	if cfg.Runtime < 0 {
		return fmt.Errorf("MuxConfig.Runtime is negative (%v)", cfg.Runtime)
	}
	for _, c := range cfg.CPUs {
		if c < 0 || c >= ncpu {
			return fmt.Errorf("MuxConfig.CPUs entry %d out of range [0, %d)", c, ncpu)
		}
	}
	for i := range cfg.Class {
		cc := &cfg.Class[i]
		switch {
		case !(cc.Rate >= 0) || math.IsInf(cc.Rate, 1):
			return fmt.Errorf("MuxConfig.Class[%d].Rate %g is not a finite non-negative rate", i, cc.Rate)
		case cc.Policy < AdmitShed || cc.Policy > AdmitThrottle:
			return fmt.Errorf("MuxConfig.Class[%d].Policy %d is unknown", i, cc.Policy)
		case cc.QueueLimit < 0:
			return fmt.Errorf("MuxConfig.Class[%d].QueueLimit is negative (%d)", i, cc.QueueLimit)
		}
	}
	return nil
}

// NewMultiplexer creates an empty multiplexer; populate it with
// AddTenant, then Start (or Run) it. Panics on an invalid config.
func NewMultiplexer(eng *sim.Engine, k *kernel.Kernel, cfg MuxConfig) *Multiplexer {
	if err := cfg.check(k.Sched.NumCPUs()); err != nil {
		panic("fio: " + err.Error())
	}
	if cfg.Runtime == 0 {
		cfg.Runtime = 2 * sim.Second
	}
	if cfg.Name == "" {
		cfg.Name = "mux"
	}
	if len(cfg.CPUs) == 0 {
		cfg.CPUs = make([]int, k.Sched.NumCPUs())
		for i := range cfg.CPUs {
			cfg.CPUs[i] = i
		}
	}
	m := &Multiplexer{
		eng:   eng,
		k:     k,
		cfg:   cfg,
		slots: make([][]int32, wheelSlots),
		base:  *rng.NewLabeled(cfg.Seed, "fio-mux/"+cfg.Name),
	}
	m.totalHist = stats.NewHistogram()
	m.tick = eng.NewTimer()
	m.tickFn = m.tickSlot
	if cfg.Phases {
		m.phases = make([]PhaseReport, kernel.NumQoSClasses)
	}
	for i := range m.classes {
		cs := &m.classes[i]
		cs.cfg = cfg.Class[i]
		cs.lat = stats.NewHistogram()
		if cs.cfg.Rate > 0 {
			cs.interval = sim.Duration(1e9 / cs.cfg.Rate)
			if cs.interval < 1 {
				cs.interval = 1
			}
			// The token-bucket depth: about a millisecond of rate, at
			// least 8.
			cs.burst = max(8, int64(cs.cfg.Rate/1000))
			cs.tokens = cs.burst
			limit := cs.cfg.QueueLimit
			if limit <= 0 {
				limit = 1024
			}
			if cs.cfg.Policy == AdmitQueue {
				cs.queue = make([]queuedArrival, limit)
			}
		}
	}
	return m
}

// AddTenant registers one tenant stream. Must be called before Start.
// Panics on an invalid spec.
func (m *Multiplexer) AddTenant(spec TenantSpec) {
	if m.started {
		panic("fio: AddTenant after Start")
	}
	arr, err := spec.Arrival.normalize()
	if err != nil {
		panic("fio: invalid TenantSpec: " + err.Error())
	}
	if err := spec.RW.check(); err != nil {
		panic("fio: invalid TenantSpec: " + err.Error())
	}
	if spec.SSD < 0 || spec.SSD >= len(m.k.SSDs) {
		panic(fmt.Sprintf("fio: tenant SSD %d out of range", spec.SSD))
	}
	if spec.BS == 0 {
		spec.BS = nand.SliceBytes
	}
	if spec.BS < 0 {
		panic(fmt.Sprintf("fio: tenant BS %d invalid", spec.BS))
	}
	if spec.Class < 0 || int(spec.Class) >= kernel.NumQoSClasses {
		panic(fmt.Sprintf("fio: tenant class %d invalid", spec.Class))
	}
	idx := m.n
	slices := int64(spec.BS / nand.SliceBytes)
	if slices < 1 {
		slices = 1
	}
	maxLBA := m.k.SSDs[spec.SSD].Flash.LogicalSlices() / slices
	op := nvme.OpRead
	if spec.RW == RandWrite {
		op = nvme.OpWrite
	}
	if idx>>tenantPageShift == len(m.pages) {
		m.pages = append(m.pages, new(tenantPage))
	}
	m.n++
	// The page slot is zero; fill it field by field rather than copy a
	// whole record in.
	t := m.tenant(int32(idx))
	t.ssd = int32(spec.SSD)
	t.cpu = int32(m.cfg.CPUs[idx%len(m.cfg.CPUs)])
	t.bs = int32(spec.BS)
	t.class = spec.Class
	t.op = op
	t.seq = spec.RW == SeqRead
	t.maxLBA = maxLBA
	t.lbaSlices = slices
	t.arr = arr
	t.rnd = m.base.DeriveIndexed(uint64(idx))
}

// tenant returns registered tenant i in place.
func (m *Multiplexer) tenant(i int32) *TenantStream {
	return &m.pages[i>>tenantPageShift][uint32(i)&tenantPageMask]
}

// Tenants reports the registered tenant count.
func (m *Multiplexer) Tenants() int { return m.n }

// Start seeds every tenant's first arrival into the wheel and arms the
// slot tick. onDone fires once the runtime elapses and the last
// in-flight I/O drains.
func (m *Multiplexer) Start(onDone func(*MuxResult)) {
	if m.started {
		panic("fio: Multiplexer started twice")
	}
	if m.k.Mode() == kernel.CompletePolling {
		panic("fio: Multiplexer requires an interrupt completion mode (no task to spin on the CQ)")
	}
	m.started = true
	m.onDone = onDone
	m.startAt = m.eng.Now()
	m.deadline = m.startAt.Add(m.cfg.Runtime)
	m.live = m.n
	for i := range m.classes {
		m.classes[i].lastFill = m.startAt
	}
	// Pre-size the wheel to its expected occupancy (each live tenant is
	// parked in exactly one slot, so the mean is tenants/slots; 2× mean
	// absorbs the clustering of a stochastic spread). Growth beyond that
	// is a rare burst-doubling rather than a per-arrival cost.
	per := 2 * (m.n/len(m.slots) + 1)
	for i := range m.slots {
		if cap(m.slots[i]) < per {
			m.slots[i] = make([]int32, 0, per)
		}
	}
	if cap(m.due) < per {
		m.due = make([]int32, 0, per)
	}
	for i := int32(0); int(i) < m.n; i++ {
		t := m.tenant(i)
		// First arrival: one full gap from start, so the initial instant
		// is drawn from the process rather than phase-locking every
		// tenant at t=0.
		t.nextAt = m.startAt.Add(t.arr.nextGap(m.startAt, &t.st, &t.rnd))
		if t.nextAt >= m.deadline {
			t.finished = true
			m.live--
			continue
		}
		m.wheelInsert(i, t.nextAt)
	}
	m.cursor = int(int64(m.startAt)/int64(slotWidth)) % len(m.slots)
	m.cursorT = m.startAt
	m.ticking = true
	m.tick.ArmAt(m.slotEnd(), m.tickFn)
}

// Run starts the mux and drives the engine until it drains, returning
// the aggregate result. Mirrors RunGroup for closed-loop jobs.
func (m *Multiplexer) Run() *MuxResult {
	done := false
	m.Start(func(*MuxResult) { done = true })
	m.eng.Drain(m.deadline, func() bool { return done }, "fio: multiplexer failed to drain")
	return &m.res
}

func (m *Multiplexer) slotEnd() sim.Time { return m.cursorT.Add(slotWidth) }

// wheelInsert parks tenant idx at its nextAt slot. Hot: one call per
// arrival (plus reinsertions); index arithmetic and one append to a
// preallocated-and-recycled slot slice.
func (m *Multiplexer) wheelInsert(idx int32, at sim.Time) {
	slot := int(int64(at)/int64(slotWidth)) % len(m.slots)
	m.slots[slot] = append(m.slots[slot], idx)
}

// tickSlot advances the wheel one slot: release every due arrival in
// the cursor slot, drain token-gated queues, then re-arm for the next
// slot boundary. This is the multiplexer's hot loop — everything it
// reaches must stay allocation-free in steady state.
func (m *Multiplexer) tickSlot() {
	end := m.slotEnd()
	s := m.slots[m.cursor]
	m.due = m.due[:0]
	keep := 0
	for i := 0; i < len(s); i++ {
		idx := s[i]
		if m.tenant(idx).nextAt >= end {
			s[keep] = idx // future revolution: stays parked
			keep++
			continue
		}
		m.due = append(m.due, idx)
	}
	m.slots[m.cursor] = s[:keep]
	for i := 0; i < len(m.due); i++ {
		m.fireDue(m.due[i], end)
	}
	m.drainQueues(end)
	if end >= m.deadline {
		m.finishArrivals()
		m.ticking = false
		m.maybeFinish()
		return
	}
	m.cursor++
	if m.cursor == len(m.slots) {
		m.cursor = 0
	}
	m.cursorT = end
	m.tick.ArmAt(m.slotEnd(), m.tickFn)
}

// fireDue releases every arrival tenant idx owes before end, then
// reparks the tenant at its next arrival.
func (m *Multiplexer) fireDue(idx int32, end sim.Time) {
	t := m.tenant(idx)
	for t.nextAt < end {
		if t.nextAt >= m.deadline {
			break
		}
		m.fireArrival(idx, t)
	}
	if t.nextAt >= m.deadline && !t.deferred {
		t.finished = true
		m.live--
		return
	}
	m.wheelInsert(idx, t.nextAt)
}

// fireArrival offers one arrival to admission control and either
// submits, sheds, queues, or defers it. The per-arrival hot path.
func (m *Multiplexer) fireArrival(idx int32, t *TenantStream) {
	now := m.eng.Now()
	intended := t.nextAt
	if t.deferred {
		intended = t.intended
	}
	cs := &m.classes[t.class]
	if !t.deferred {
		cs.offered++
	}
	admit := true
	if cs.interval > 0 {
		cs.refill(now)
		if cs.tokens > 0 {
			cs.tokens--
		} else {
			admit = false
		}
	}
	if admit {
		t.deferred = false
		cs.admitted++
		m.submitArrival(t, intended)
		m.advanceTenant(t, t.nextAt)
		return
	}
	switch cs.cfg.Policy {
	case AdmitShed:
		cs.shed++
		t.deferred = false
		m.advanceTenant(t, t.nextAt)
	case AdmitQueue:
		if cs.qLen < len(cs.queue) {
			cs.queue[(cs.qHead+cs.qLen)%len(cs.queue)] = queuedArrival{tenant: idx, intended: intended}
			cs.qLen++
			cs.queuedN++
		} else {
			cs.queueShed++
		}
		t.deferred = false
		m.advanceTenant(t, t.nextAt)
	case AdmitThrottle:
		if !t.deferred {
			cs.throttled++
			t.deferred = true
			t.intended = intended
		}
		wait := cs.lastFill.Add(cs.interval).Sub(now)
		if wait < 1 {
			wait = 1
		}
		t.nextAt = now.Add(wait)
	default:
		panic("fio: invalid AdmitPolicy")
	}
}

// advanceTenant draws the next inter-arrival gap from the point the
// current arrival was intended, keeping the process rate-exact under
// slot quantization and admission delay.
func (m *Multiplexer) advanceTenant(t *TenantStream, from sim.Time) {
	t.nextAt = from.Add(t.arr.nextGap(from, &t.st, &t.rnd))
}

// drainQueues admits parked arrivals as their class buckets refill.
func (m *Multiplexer) drainQueues(now sim.Time) {
	for i := range m.classes {
		cs := &m.classes[i]
		if cs.qLen == 0 {
			continue
		}
		cs.refill(now)
		for cs.qLen > 0 && cs.tokens > 0 {
			qa := cs.queue[cs.qHead]
			cs.qHead = (cs.qHead + 1) % len(cs.queue)
			cs.qLen--
			cs.tokens--
			cs.admitted++
			m.submitArrival(m.tenant(qa.tenant), qa.intended)
		}
	}
}

// submitArrival pushes one admitted arrival into the kernel on a pooled
// carrier.
func (m *Multiplexer) submitArrival(t *TenantStream, intended sim.Time) {
	r := m.getReq()
	r.class = t.class
	r.intended = intended
	m.inflight++
	var lba int64
	if t.seq {
		lba = (t.nextSeq % t.maxLBA) * t.lbaSlices
		t.nextSeq++
	} else {
		lba = t.rnd.Int63n(t.maxLBA) * t.lbaSlices
	}
	m.k.SubmitIOClass(int(t.cpu), int(t.ssd), t.class,
		nvme.Command{Op: t.op, LBA: lba, Bytes: int(t.bs)}, r)
}

func (m *Multiplexer) getReq() *muxReq {
	if n := len(m.freeReqs); n > 0 {
		r := m.freeReqs[n-1]
		m.freeReqs[n-1] = nil
		m.freeReqs = m.freeReqs[:n-1]
		return r
	}
	return &muxReq{m: m} //afalint:allow hotalloc -- freelist miss only; amortized across carrier reuses
}

// OnCompletion runs in softirq context on the delivery CPU: record the
// outcome against its class, recycle the carrier, and finish the run if
// this was the last straggler.
func (r *muxReq) OnCompletion(c *kernel.Completion) {
	m := r.m
	now := m.eng.Now()
	m.inflight--
	ok := c.Status == nvme.StatusSuccess
	m.k.NoteClassCompletion(r.class, ok)
	if ok {
		m.classes[r.class].lat.Record(int64(now.Sub(r.intended)))
		if m.phases != nil {
			m.phases[r.class].add(c, now)
		}
	} else {
		m.classes[r.class].errors++
	}
	m.freeReqs = append(m.freeReqs, r)
	m.maybeFinish()
}

// finishArrivals runs at the deadline tick: every still-parked tenant
// stops generating, and parked queue entries are accounted as shed at
// shutdown.
func (m *Multiplexer) finishArrivals() {
	for si := range m.slots {
		s := m.slots[si]
		for i := 0; i < len(s); i++ {
			t := m.tenant(s[i])
			if t.finished {
				continue
			}
			t.finished = true
			m.live--
		}
		m.slots[si] = s[:0]
	}
	for i := range m.classes {
		cs := &m.classes[i]
		cs.queueShed += int64(cs.qLen)
		cs.qLen = 0
	}
}

// maybeFinish closes out the run once arrivals have stopped and the
// last in-flight I/O has drained.
func (m *Multiplexer) maybeFinish() {
	if m.finished || m.ticking || m.inflight > 0 || m.live > 0 {
		return
	}
	m.finished = true
	m.buildResult()
	if m.onDone != nil {
		m.onDone(&m.res)
	}
}

func (m *Multiplexer) buildResult() {
	m.res.Name = m.cfg.Name
	m.res.Tenants = m.n
	m.res.Runtime = m.cfg.Runtime
	for i := range m.classes {
		cs := &m.classes[i]
		cr := &m.res.Class[i]
		cr.Offered = cs.offered
		cr.Admitted = cs.admitted
		cr.Shed = cs.shed
		cr.Queued = cs.queuedN
		cr.QueueShed = cs.queueShed
		cr.Throttled = cs.throttled
		cr.Errors = cs.errors
		cr.Ladder = stats.LadderOf(cs.lat)
		cr.Completed = cs.lat.Count()
		if m.phases != nil {
			cr.Phases = &m.phases[i]
		}
		m.totalHist.Merge(cs.lat)
		m.res.Offered += cr.Offered
		m.res.Admitted += cr.Admitted
		m.res.Completed += cr.Completed
		m.res.Errors += cr.Errors
	}
	m.res.Total = stats.LadderOf(m.totalHist)
}
