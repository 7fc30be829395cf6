// Package nvme models the M.2 NVMe SSD controller of Table I: per-CPU
// submission/completion queue pairs, command processing, the NAND back-end
// (package nand), and — central to Section IV-E — firmware housekeeping.
//
// The stock firmware periodically collects and persists SMART data; while
// that runs, media access stalls for a few hundred microseconds, which is
// exactly the periodic latency-spike train of Fig 10 and the ~600 µs
// 6-nines floor of Figs 7–9. The "experimental firmware" build disables
// SMART persistence entirely (Fig 11), and an "incremental" variant models
// the improved housekeeping protocol the paper calls for in Section V:
// the same bookkeeping spread into many microsecond-scale slices.
package nvme

import (
	"fmt"

	"repro/internal/nand"
	"repro/internal/pcie"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Spec mirrors the paper's Table I.
type Spec struct {
	HostInterface   string
	CapacityGB      int
	RandReadIOPS    int
	RandWriteIOPS   int
	SeqReadMBps     int
	SeqWriteMBps    int
	NANDType        string
	DesignReadLat   sim.Duration // 25 µs standalone design read latency (Section IV-A)
	SwitchedReadLat sim.Duration // 30 µs through the PCIe switch fabric
}

// SpecTableI returns the modeled device's data sheet.
func SpecTableI() Spec {
	return Spec{
		HostInterface:   "NVMe 1.2 - PCIe 3.0 x4",
		CapacityGB:      960,
		RandReadIOPS:    160_000,
		RandWriteIOPS:   30_000,
		SeqReadMBps:     1_700,
		SeqWriteMBps:    750,
		NANDType:        "3D MLC NAND",
		DesignReadLat:   25 * sim.Microsecond,
		SwitchedReadLat: 30 * sim.Microsecond,
	}
}

// DeviceClass selects the media/controller speed class of a device.
type DeviceClass int

const (
	// ClassFlash is the paper's Table I 3D MLC device (~25 µs reads).
	ClassFlash DeviceClass = iota
	// ClassULL is a Z-NAND-class ultra-low-latency device (~3 µs reads,
	// per "Faster than Flash"): SLC-mode media plus a slimmed controller
	// pipeline. At this speed host software dominates end-to-end latency
	// and the 2018 paper's IRQ/affinity tunings invert in importance.
	ClassULL
)

func (d DeviceClass) String() string {
	switch d {
	case ClassULL:
		return "ull"
	default:
		return "flash"
	}
}

// SpecZNAND returns the data sheet of the modeled ULL device.
func SpecZNAND() Spec {
	return Spec{
		HostInterface:   "NVMe 1.3 - PCIe 3.0 x4",
		CapacityGB:      800,
		RandReadIOPS:    550_000,
		RandWriteIOPS:   170_000,
		SeqReadMBps:     3_200,
		SeqWriteMBps:    2_000,
		NANDType:        "Z-NAND (SLC-mode)",
		DesignReadLat:   4 * sim.Microsecond,
		SwitchedReadLat: 8 * sim.Microsecond,
	}
}

// FirmwareKind selects the housekeeping behaviour.
type FirmwareKind int

const (
	// FirmwareStandard periodically blocks media to update and save SMART
	// data (the shipping firmware of Section IV-E).
	FirmwareStandard FirmwareKind = iota
	// FirmwareNoSMART is the experimental build with SMART update/save
	// disabled (Fig 11).
	FirmwareNoSMART
	// FirmwareIncremental spreads SMART bookkeeping into microsecond
	// slices — the improved housekeeping protocol of Section V.
	FirmwareIncremental
)

func (k FirmwareKind) String() string {
	switch k {
	case FirmwareNoSMART:
		return "experimental-nosmart"
	case FirmwareIncremental:
		return "incremental-smart"
	default:
		return "standard"
	}
}

// Firmware configures housekeeping.
type Firmware struct {
	Kind FirmwareKind
	// SMARTPeriod is the interval between SMART persistence windows.
	SMARTPeriod sim.Duration
}

const (
	// smartBlockTime is how long one SMART window stalls media (standard
	// firmware).
	smartBlockTime = 550 * sim.Microsecond
	// incrementalSlice is the media stall of one incremental step; steps
	// run smartBlockTime/incrementalSlice times more often, preserving
	// total overhead.
	incrementalSlice = 5 * sim.Microsecond
)

// DefaultFirmware returns the stock firmware: a ~550 µs media stall every
// ~55 s (Fig 10 shows two spike windows within a 120 s / 4 M-sample run).
func DefaultFirmware() Firmware {
	return Firmware{
		Kind:        FirmwareStandard,
		SMARTPeriod: 55 * sim.Second,
	}
}

// Opcode is the NVMe command opcode subset the model implements.
type Opcode int

const (
	// OpRead is a 4 KiB random read.
	OpRead Opcode = iota
	// OpWrite is a 4 KiB write (buffered, spec-rate limited).
	OpWrite
	// OpFlush drains the write cache (modeled as a fixed cost).
	OpFlush
)

// Command is one NVMe I/O command.
type Command struct {
	Op    Opcode
	LBA   int64 // in 4 KiB slices
	Bytes int
	Queue int // submitting CPU / queue pair index
}

// Status is the completion status the controller posts in the CQE. The
// model collapses the NVMe status-code hierarchy into the four outcomes
// the host stack distinguishes: success, a retryable transient failure
// (generic internal error with the retry bit), an uncorrectable media
// error (permanent for that LBA), and command aborted.
type Status int

const (
	// StatusSuccess: command completed normally.
	StatusSuccess Status = iota
	// StatusTransient: internal controller error with the do-not-retry
	// bit clear — the host may re-issue the command.
	StatusTransient
	// StatusMediaError: unrecovered read error; retrying the same LBA on
	// the same device cannot succeed.
	StatusMediaError
	// StatusAborted: the command was aborted (host Abort admin command,
	// or the device disappeared mid-flight).
	StatusAborted
)

func (s Status) String() string {
	switch s {
	case StatusTransient:
		return "transient-error"
	case StatusMediaError:
		return "media-error"
	case StatusAborted:
		return "aborted"
	default:
		return "success"
	}
}

// Retryable reports whether re-issuing the command can succeed.
func (s Status) Retryable() bool { return s == StatusTransient }

// Result describes a completed command, with blktrace-style timestamps of
// each phase so host tooling can decompose latency (see the fio package's
// phase report and the anatomy example).
type Result struct {
	Cmd         Command
	SubmittedAt sim.Time
	// FetchedAt is when the controller finished fetching and decoding the
	// SQE (doorbell + fabric + decode).
	FetchedAt sim.Time
	// MediaStartAt is when the NAND operation began (after any
	// housekeeping stall); zero for non-media commands.
	MediaStartAt sim.Time
	// MediaDoneAt is when the NAND operation finished; zero for non-media
	// commands.
	MediaDoneAt sim.Time
	// CompletedAt is when the CQE was posted (data transferred, interrupt
	// about to fire).
	CompletedAt sim.Time
	// BlockedBySMART reports that the command waited on a housekeeping
	// window.
	BlockedBySMART bool
	// Dropped marks a drop notice rather than a CQE: the device went
	// offline and lost the command, so no CQE will ever be posted for it.
	// The notice carries the command and its SubmittedAt (plus whatever
	// stage timestamps it had reached); Status and CompletedAt are unset.
	Dropped bool
	// Status is the CQE status code. Callers must check it: a non-success
	// completion carries no data.
	Status Status
}

// Stats counts controller activity.
type Stats struct {
	Reads, Writes, Flushes int64
	SMARTWindows           int64
	SMARTBlockedIOs        int64
	Formats                int64
	// Fault-injection outcomes (package fault drives the knobs).
	TransientErrors int64 // commands failed with StatusTransient
	MediaErrors     int64 // commands failed with StatusMediaError
	DroppedCmds     int64 // commands lost to an offline (dropped) device
	FaultStalls     int64 // injected firmware SQ-drain stalls
}

// Controller is one SSD: NVMe front-end plus NAND back-end.
type Controller struct {
	ID     int
	Class  DeviceClass
	Spec   Spec
	FW     Firmware
	Flash  *nand.Device
	fabric *pcie.Fabric
	eng    *sim.Engine
	rnd    *rng.Stream

	// cmdFetch/cmdProcess/cqePost are controller-side costs per command.
	cmdProcess sim.Duration
	cqePost    sim.Duration

	blockedUntil   sim.Time
	smartTicker    *sim.Ticker
	writeNextFree  sim.Time
	writeTokenCost sim.Duration

	// Fault-injection state, driven by package fault through the setters
	// below. All zero values mean a healthy device; the paths below cost
	// nothing extra in that case.
	faultRnd      *rng.Stream
	readSlow      float64 // slow-NAND bin multiplier, 1 = nominal
	writeSlow     float64 // write-token cost multiplier, 1 = nominal
	stormSlow     float64 // GC-storm window multiplier, 1 = no storm
	transientRate float64 // per-command probability of StatusTransient
	// badLBAs is the injected-media-error set. A small slice with linear
	// scans, not a map: media errors are injected in handfuls, and the
	// per-slice lookup sits on the mediaStart hot path where map hashing
	// costs more than scanning a few entries (afalint hotmap).
	badLBAs      []int64
	offline      bool
	sqStallUntil sim.Time

	// freeReqs recycles in-flight command carriers (see ioReq). A plain
	// per-controller slice, not a sync.Pool: the simulation is
	// single-threaded and reuse order must be deterministic.
	freeReqs []*ioReq

	// qpNext is the next tenant queue-pair ID (see queue.go).
	qpNext int

	// admin holds the admin commands awaiting completion, in submission
	// order; adminFn (adminDone, bound once in New) completes one of them
	// per scheduled event.
	admin   []adminCmd
	adminFn func()

	stats Stats
}

// Config assembles a Controller.
type Config struct {
	ID     int
	Fabric *pcie.Fabric
	Geom   nand.Geometry
	FW     Firmware
	Seed   uint64
	// Class selects the device speed class; the zero value is the paper's
	// Table I flash device. ClassULL swaps in the Z-NAND spec, a slimmed
	// controller pipeline, and ZNANDTiming.
	Class DeviceClass
}

// New builds one SSD behind the fabric. The SMART phase is derived from the
// seed and SSD ID so the 64 devices' windows do not align (each device's
// spike train has its own phase, as in Fig 10).
func New(eng *sim.Engine, cfg Config) *Controller {
	if cfg.Fabric == nil {
		panic("nvme: Fabric required")
	}
	if cfg.FW.SMARTPeriod == 0 {
		cfg.FW = DefaultFirmware()
	}
	if cfg.Geom.Channels == 0 {
		cfg.Geom = nand.TableIGeometry()
	}
	// The device class picks the spec sheet, the media timing, and
	// the controller pipeline costs: the ULL part pairs Z-NAND media with a
	// slimmed command path (~0.7 µs of controller time vs the flash part's
	// ~2.5 µs) — on a ~3 µs medium the 2018-class pipeline would dominate.
	spec, timing := SpecTableI(), nand.MLC3DTiming()
	cmdProcess, cqePost := 2*sim.Microsecond, 500*sim.Nanosecond
	if cfg.Class == ClassULL {
		spec, timing = SpecZNAND(), nand.ZNANDTiming()
		cmdProcess, cqePost = 500*sim.Nanosecond, 200*sim.Nanosecond
	}
	c := &Controller{
		ID:             cfg.ID,
		Class:          cfg.Class,
		Spec:           spec,
		FW:             cfg.FW,
		fabric:         cfg.Fabric,
		eng:            eng,
		rnd:            rng.NewLabeled(cfg.Seed, fmt.Sprintf("nvme%d", cfg.ID)),
		faultRnd:       rng.NewLabeled(cfg.Seed, fmt.Sprintf("nvme%d/fault", cfg.ID)),
		readSlow:       1,
		writeSlow:      1,
		stormSlow:      1,
		cmdProcess:     cmdProcess,
		cqePost:        cqePost,
		writeTokenCost: sim.Duration(int64(sim.Second) / int64(spec.RandWriteIOPS)),
	}
	c.adminFn = c.adminDone
	c.Flash = nand.NewDevice(eng, cfg.Geom, timing, cfg.Seed^uint64(cfg.ID)*0x9e37)
	c.startHousekeeping()
	return c
}

// startHousekeeping arms the firmware's SMART timer per the kind.
func (c *Controller) startHousekeeping() {
	if c.smartTicker != nil {
		c.smartTicker.Stop()
		c.smartTicker = nil
	}
	switch c.FW.Kind {
	case FirmwareNoSMART:
		return
	case FirmwareIncremental:
		period := c.FW.SMARTPeriod / (smartBlockTime / incrementalSlice)
		// Desynchronize devices with a phase offset.
		phase := sim.Duration(c.rnd.Int63n(int64(period)))
		c.eng.Schedule(phase, func() {
			c.smartTicker = sim.NewTicker(c.eng, period, func(sim.Time) {
				c.blockMedia(incrementalSlice)
			})
		})
	default:
		phase := sim.Duration(c.rnd.Int63n(int64(c.FW.SMARTPeriod)))
		c.eng.Schedule(phase, func() {
			c.smartWindow()
			c.smartTicker = sim.NewTicker(c.eng, c.FW.SMARTPeriod, func(sim.Time) {
				c.smartWindow()
			})
		})
	}
}

func (c *Controller) smartWindow() {
	c.stats.SMARTWindows++
	c.blockMedia(smartBlockTime)
}

func (c *Controller) blockMedia(d sim.Duration) {
	until := c.eng.Now().Add(d)
	if until > c.blockedUntil {
		c.blockedUntil = until
	}
}

// SetFirmware swaps the firmware build (a reflash) and re-arms
// housekeeping.
func (c *Controller) SetFirmware(fw Firmware) {
	c.FW = fw
	c.startHousekeeping()
}

// Stats returns a copy of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// MediaBlockedUntil exposes the housekeeping stall deadline (for tests).
func (c *Controller) MediaBlockedUntil() sim.Time { return c.blockedUntil }

// --- fault-injection knobs (package fault is the intended driver) ---

// SetReadSlowdown scales NAND read service time by factor (a slow-bin
// device; 1 restores nominal). Factors below 1 are rejected: the model
// never makes a device faster than its bin.
func (c *Controller) SetReadSlowdown(factor float64) {
	if factor < 1 {
		factor = 1
	}
	c.readSlow = factor
}

// SetWriteSlowdown scales the write-token admission cost by factor (worn
// flash programming slower, or a controller throttling writes thermally;
// 1 restores nominal). Factors below 1 are rejected, as for reads.
func (c *Controller) SetWriteSlowdown(factor float64) {
	if factor < 1 {
		factor = 1
	}
	c.writeSlow = factor
}

// SetStormFactor scales NAND read time during a GC-storm window; it
// composes multiplicatively with SetReadSlowdown. 1 ends the storm.
func (c *Controller) SetStormFactor(factor float64) {
	if factor < 1 {
		factor = 1
	}
	c.stormSlow = factor
}

// SetTransientErrorRate sets the per-command probability of a retryable
// StatusTransient completion. Draws come from the controller's private
// fault stream, so enabling errors on one device never perturbs another.
func (c *Controller) SetTransientErrorRate(p float64) { c.transientRate = p }

// MarkBadLBA makes reads of the slice return StatusMediaError until a
// write rewrites it (or Format, which discards the medium state entirely).
func (c *Controller) MarkBadLBA(lba int64) {
	if !c.lbaBad(lba) {
		c.badLBAs = append(c.badLBAs, lba)
	}
}

// lbaBad reports whether lba carries an injected media error. Linear scan
// over the (tiny) injected set; see the badLBAs field comment.
func (c *Controller) lbaBad(lba int64) bool {
	for _, b := range c.badLBAs {
		if b == lba {
			return true
		}
	}
	return false
}

// healLBA drops lba from the bad set (remove-by-swap; membership is what
// matters, the scan order never escapes).
func (c *Controller) healLBA(lba int64) {
	for i, b := range c.badLBAs {
		if b == lba {
			last := len(c.badLBAs) - 1
			c.badLBAs[i] = c.badLBAs[last]
			c.badLBAs = c.badLBAs[:last]
			return
		}
	}
}

// SetOffline drops (true) or recovers (false) the whole device. While
// offline, submitted commands are lost without a CQE — exactly the failure
// mode the host-side timeout machinery exists for. Each lost command's
// receiver gets a drop notice (Result.Dropped) instead.
func (c *Controller) SetOffline(offline bool) { c.offline = offline }

// StallSubmissionQueues models a firmware lockup: the controller stops
// fetching SQEs for d. Commands already fetched proceed; newly submitted
// ones wait out the stall before decode.
func (c *Controller) StallSubmissionQueues(d sim.Duration) {
	until := c.eng.Now().Add(d)
	if until > c.sqStallUntil {
		c.sqStallUntil = until
	}
	c.stats.FaultStalls++
}

// slowFactor is the effective NAND read multiplier.
func (c *Controller) slowFactor() float64 { return c.readSlow * c.stormSlow }

// Receiver takes a submitted command's CQE or drop notice. The *Result
// points into the controller's command carrier, which is recycled as
// soon as the call returns: it is valid only during the call, and a
// receiver that needs any of it later copies it out.
type Receiver interface {
	OnResult(res *Result)
}

// ReceiverFunc adapts a function to Receiver.
type ReceiverFunc func(res *Result)

// OnResult calls f(res).
func (f ReceiverFunc) OnResult(res *Result) { f(res) }

// resultFunc adapts Submit's by-value callback to Receiver. A func value
// is pointer-shaped, so the conversion to the interface allocates
// nothing.
type resultFunc func(Result)

func (f resultFunc) OnResult(res *Result) { f(*res) }

// ioReq carries one in-flight command through the controller's staged
// pipeline (fetch → media → upstream → CQE). Requests are recycled
// through the controller's freelist and their stage callbacks are bound
// once at creation, so steady-state command traffic schedules every stage
// without allocating: the old continuation-passing closures were the
// single largest entry in the allocation profile. res.Cmd is the command
// itself; the receiver reads res in place.
type ioReq struct {
	c   *Controller
	res Result
	to  Receiver

	fetchedFn   func()
	mediaFn     func()
	nandDoneFn  func()
	writeDoneFn func()
	completeFn  func()
}

// getReq pops a recycled request (or builds one) and primes it for cmd.
func (c *Controller) getReq(cmd Command, to Receiver) *ioReq {
	var r *ioReq
	if n := len(c.freeReqs); n > 0 {
		r = c.freeReqs[n-1]
		c.freeReqs[n-1] = nil
		c.freeReqs = c.freeReqs[:n-1]
	} else {
		r = &ioReq{c: c}            //afalint:allow hotalloc -- freelist miss only; amortized across carrier reuses
		r.fetchedFn = r.fetched     //afalint:allow hotalloc -- stage callback bound once per pooled carrier
		r.mediaFn = r.mediaStart    //afalint:allow hotalloc -- stage callback bound once per pooled carrier
		r.nandDoneFn = r.nandDone   //afalint:allow hotalloc -- stage callback bound once per pooled carrier
		r.writeDoneFn = r.writeDone //afalint:allow hotalloc -- stage callback bound once per pooled carrier
		r.completeFn = r.complete   //afalint:allow hotalloc -- stage callback bound once per pooled carrier
	}
	// Zero, then set: a non-zero composite literal assigned through a
	// pointer is built in a temporary and then copied.
	r.res = Result{}
	r.res.Cmd = cmd
	r.res.SubmittedAt = c.eng.Now()
	r.to = to
	return r
}

// putReq returns a request to the freelist once its receiver has
// returned.
func (c *Controller) putReq(r *ioReq) {
	r.to = nil
	c.freeReqs = append(c.freeReqs, r)
}

// Submit issues a command with a by-value completion callback; it is
// SubmitTo with done adapted to Receiver.
func (c *Controller) Submit(cmd Command, done func(Result)) {
	c.SubmitTo(cmd, resultFunc(done))
}

// SubmitTo issues a command. to receives exactly one call: when the CQE
// has been posted and the MSI-X interrupt would be raised, or with a drop
// notice (Result.Dropped) at the instant an offline device loses the
// command — at the doorbell, in the SQ, or before its CQE is posted. A
// notice is not a CQE: it schedules no event and raises no interrupt, so
// recovery stays the host's job (kernel timeout), but the host can
// reclaim whatever it held for the command. The host-side interrupt path
// is the caller's job (the kernel package routes it through package irq).
func (c *Controller) SubmitTo(cmd Command, to Receiver) {
	now := c.eng.Now()
	if cmd.Bytes == 0 {
		cmd.Bytes = 4096
	}
	r := c.getReq(cmd, to)
	if c.offline {
		// The device is gone: the doorbell write lands nowhere.
		r.drop()
		return
	}

	// Doorbell + SQE fetch across the fabric, then controller decode. A
	// stalled firmware stops draining SQs: the fetch waits out the stall.
	fetch := c.fabric.Downstream(c.ID, 64) + c.cmdProcess
	if c.sqStallUntil > now {
		fetch += c.sqStallUntil.Sub(now)
	}
	c.eng.Schedule(fetch, r.fetchedFn)
}

// fetched runs when the controller finished fetching and decoding the SQE.
func (r *ioReq) fetched() {
	c := r.c
	if c.offline {
		// Dropped while the command sat in the SQ.
		r.drop()
		return
	}
	r.res.FetchedAt = c.eng.Now()
	if c.transientRate > 0 && c.faultRnd.Bool(c.transientRate) {
		// Internal controller error: the command dies after decode,
		// before (or during) media access; the CQE carries the
		// retryable generic error status.
		c.stats.TransientErrors++
		r.res.Status = StatusTransient
		c.eng.Schedule(c.cqePost+c.fabric.Upstream(c.ID, 16), r.completeFn)
		return
	}
	switch r.res.Cmd.Op {
	case OpRead:
		c.stats.Reads++
		r.mediaRead()
	case OpWrite:
		c.stats.Writes++
		r.bufferedWrite()
	case OpFlush:
		c.stats.Flushes++
		c.eng.Schedule(50*sim.Microsecond, r.completeFn)
	default:
		panic(fmt.Sprintf("nvme: unknown opcode %d", r.res.Cmd.Op))
	}
}

// mediaRead waits out any housekeeping stall, reads NAND, and returns the
// payload upstream. It is fetched's last action, so with no stall and
// nothing else due now the zero-delay media event would fire next: the
// read starts inline instead, saving an engine event per read with the
// same fire order.
func (r *ioReq) mediaRead() {
	c := r.c
	now := c.eng.Now()
	var stall sim.Duration
	if c.blockedUntil > now {
		stall = c.blockedUntil.Sub(now)
		r.res.BlockedBySMART = true
		c.stats.SMARTBlockedIOs++
	}
	if stall == 0 && !c.eng.DueNow() {
		r.mediaStart()
		return
	}
	c.eng.Schedule(stall, r.mediaFn)
}

// mediaStart performs the NAND array read once any stall has drained.
func (r *ioReq) mediaStart() {
	c := r.c
	r.res.MediaStartAt = c.eng.Now()
	// Large commands stripe across consecutive slices; dies proceed in
	// parallel, so the slowest slice governs.
	slices := (r.res.Cmd.Bytes + 4095) / 4096
	if slices < 1 {
		slices = 1
	}
	var nandDelay sim.Duration
	bad := false
	for i := 0; i < slices; i++ {
		lba := r.res.Cmd.LBA + int64(i)
		if c.lbaBad(lba) {
			bad = true
		}
		if d := c.Flash.Read(lba); d > nandDelay {
			nandDelay = d
		}
	}
	if f := c.slowFactor(); f > 1 {
		// Slow-bin / GC-storm degradation stretches the array time.
		nandDelay = sim.Duration(float64(nandDelay) * f)
	}
	if bad {
		// Uncorrectable slice: the read-retry ladder runs to exhaustion
		// (a few extra array reads) and the CQE reports a media error.
		nandDelay *= 3
		r.res.Status = StatusMediaError
		c.stats.MediaErrors++
	}
	c.eng.Schedule(nandDelay, r.nandDoneFn)
}

// nandDone moves the payload upstream and posts the CQE.
func (r *ioReq) nandDone() {
	c := r.c
	r.res.MediaDoneAt = c.eng.Now()
	up := c.fabric.Upstream(c.ID, r.res.Cmd.Bytes) + c.cqePost
	c.eng.Schedule(up, r.completeFn)
}

// bufferedWrite admits the write into the cache at the spec's sustained
// rate (Table I: 30 k random-write IOPS) and completes once buffered; the
// NAND program happens in the background.
func (r *ioReq) bufferedWrite() {
	c := r.c
	now := c.eng.Now()
	var stall sim.Duration
	if c.blockedUntil > now {
		stall = c.blockedUntil.Sub(now)
		r.res.BlockedBySMART = true
		c.stats.SMARTBlockedIOs++
	}
	// Rewriting an uncorrectable LBA heals it: the program lands on a
	// fresh page and the mapping moves (how a RAID repair-write fixes a
	// bad sector).
	c.healLBA(r.res.Cmd.LBA)
	admit := now.Add(stall)
	if c.writeNextFree > admit {
		admit = c.writeNextFree
	}
	token := c.writeTokenCost
	if c.writeSlow > 1 {
		token = sim.Duration(float64(token) * c.writeSlow)
	}
	c.writeNextFree = admit.Add(token)
	cache := 8 * sim.Microsecond
	c.eng.ScheduleAt(admit.Add(cache), r.writeDoneFn)
}

// writeDone is the cache-admission instant: the background program (and
// any foreground GC it triggers in a used, non-FOB device) lands here.
func (r *ioReq) writeDone() {
	c := r.c
	// Background program: its nominal latency (and transient die-queue
	// waits) are hidden by the cache, but foreground GC stalls the cache
	// drain and pushes out subsequent admissions — the used-state latency
	// spikes of the paper's future-work study.
	_, gc := c.Flash.WriteWithGC(r.res.Cmd.LBA)
	if gc > 0 {
		c.writeNextFree = c.writeNextFree.Add(gc)
	}
	r.complete()
}

// complete posts the CQE and hands the result to the host in place.
func (r *ioReq) complete() {
	c := r.c
	if c.offline {
		// The device died with the command in flight: no CQE.
		r.drop()
		return
	}
	r.res.CompletedAt = c.eng.Now()
	// Release after the callback: the receiver reads r.res in place. A
	// command it submits meanwhile takes another carrier, so the
	// freelist holds one more than were ever in flight at once.
	r.to.OnResult(&r.res)
	c.putReq(r)
}

// drop loses the command to an offline device: it is counted, the
// receiver handed the drop notice in place of a CQE, and the request
// released.
func (r *ioReq) drop() {
	c := r.c
	c.stats.DroppedCmds++
	r.res.Dropped = true
	r.to.OnResult(&r.res)
	c.putReq(r)
}

// Format executes the NVMe format admin command: all mappings are
// discarded and the device returns to FOB (the paper's methodology before
// every run). done fires when the device is usable again.
func (c *Controller) Format(done func()) {
	c.stats.Formats++
	c.submitAdmin(200*sim.Millisecond, adminCmd{op: adminFormat, onFormat: done})
}

// adminOp names the admin commands the model serves.
type adminOp int

const (
	adminFormat adminOp = iota
	adminIdentify
	adminLogPage
)

// adminCmd is one admin command awaiting its completion instant. Admin
// commands ride the controller's admin queue (Controller.admin) as values,
// and every completion event runs the one callback bound in New, so an
// admin command allocates no closure.
type adminCmd struct {
	at         sim.Time
	op         adminOp
	onFormat   func()
	onIdentify func(IdentifyController)
	onLog      func(SMARTLog)
}

// submitAdmin queues cmd and schedules its completion d from now.
func (c *Controller) submitAdmin(d sim.Duration, cmd adminCmd) {
	cmd.at = c.eng.Now().Add(d)
	c.admin = append(c.admin, cmd)
	c.eng.Schedule(d, c.adminFn)
}

// adminDone completes the admin command due now. Events due at one
// instant fire in the order they were scheduled, so the first queued
// command due now is the one whose event this is.
func (c *Controller) adminDone() {
	now := c.eng.Now()
	i := 0
	for c.admin[i].at != now {
		i++
	}
	cmd := c.admin[i]
	last := len(c.admin) - 1
	copy(c.admin[i:], c.admin[i+1:])
	c.admin[last] = adminCmd{} // drop the stale callbacks past the end
	c.admin = c.admin[:last]
	switch cmd.op {
	case adminFormat:
		c.Flash.Format()
		c.badLBAs = nil // format remaps injected media errors away
		if cmd.onFormat != nil {
			cmd.onFormat()
		}
	case adminIdentify:
		cmd.onIdentify(IdentifyController{
			ModelNumber:      "CB-AFA-M2-960",
			SerialNumber:     fmt.Sprintf("S4FANX0M%06d", c.ID),
			FirmwareRev:      c.FW.Kind.String(),
			TotalCapacityGB:  c.Spec.CapacityGB,
			NumNamespaces:    1,
			MaxTransferBytes: 128 << 10,
		})
	case adminLogPage:
		cmd.onLog(SMARTLog{
			PowerOnIOs:    c.stats.Reads + c.stats.Writes,
			SMARTWindows:  c.stats.SMARTWindows,
			MediaBlocked:  c.stats.SMARTBlockedIOs,
			FirmwareBuild: c.FW.Kind.String(),
		})
	}
}

// IdentifyController is the subset of the NVMe Identify Controller data
// structure the model reports (what `nvme id-ctrl` shows).
type IdentifyController struct {
	ModelNumber     string
	SerialNumber    string
	FirmwareRev     string
	TotalCapacityGB int
	NumNamespaces   int
	// MDTS-equivalent: max transfer size in bytes.
	MaxTransferBytes int
}

// Identify serves the Identify Controller admin command.
func (c *Controller) Identify(done func(IdentifyController)) {
	c.submitAdmin(c.cmdProcess+c.fabric.Upstream(c.ID, 4096), adminCmd{op: adminIdentify, onIdentify: done})
}

// SMARTLog is the subset of the SMART / health log page the model tracks.
type SMARTLog struct {
	PowerOnIOs    int64
	SMARTWindows  int64
	MediaBlocked  int64
	FirmwareBuild string
}

// GetLogPage serves the SMART/health admin command. Reading the page does
// not itself stall media (it returns the shadow copy), but it reflects how
// often the firmware's internal collection ran.
func (c *Controller) GetLogPage(done func(SMARTLog)) {
	c.submitAdmin(c.cmdProcess+c.fabric.Upstream(c.ID, 512), adminCmd{op: adminLogPage, onLog: done})
}
