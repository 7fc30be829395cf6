// Package nand models the flash back-end of one M.2 NVMe SSD: the package
// geometry (channels, dies, planes, blocks, pages), raw operation timing,
// and a page-mapped flash translation layer with greedy garbage collection.
//
// The paper deliberately keeps every SSD in the FOB (fresh out of box)
// state via NVMe format so that FTL housekeeping — GC, wear leveling —
// never pollutes the latency measurements; reproducing that methodology,
// Device.Format restores the FOB state and FOB reads have fully
// deterministic service times. GC is implemented anyway because the
// paper's future work ("we will assess latency distributions in used
// (non-FOB) SSD states") is covered by an extension experiment.
package nand

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/sim"
)

const (
	// SliceBytes is the host mapping granularity: one logical block, the
	// unit of every layer's LBA arithmetic.
	SliceBytes = 4 << 10
	// pageBytes is the flash page size.
	pageBytes = 16 << 10
	// slicesPerPage is how many host slices fit one flash page.
	slicesPerPage = pageBytes / SliceBytes
)

// Geometry describes the flash array inside one SSD.
type Geometry struct {
	Channels      int
	DiesPerChan   int
	PlanesPerDie  int
	BlocksPerPlan int
	PagesPerBlock int
}

// TableIGeometry approximates the paper's 960 GB 3D MLC device: the exact
// internal layout is proprietary, so a plausible 8-channel configuration is
// used; only the op timing affects latency results.
func TableIGeometry() Geometry {
	return Geometry{
		Channels:      8,
		DiesPerChan:   4,
		PlanesPerDie:  2,
		BlocksPerPlan: 3838, // 64 planes × 3838 × 256 × 16 KiB ≈ 1.03 TB raw (7% OP over 960 GB)
		PagesPerBlock: 256,
	}
}

// TinyGeometry is a small array for tests and GC studies. Eight dies keep
// enough program parallelism that the Table I 30k-IOPS write spec (not die
// contention) is the sustained-write bound, as on the real device.
func TinyGeometry() Geometry {
	return Geometry{
		Channels:      4,
		DiesPerChan:   2,
		PlanesPerDie:  1,
		BlocksPerPlan: 32,
		PagesPerBlock: 16,
	}
}

// Validate checks internal consistency.
func (g Geometry) Validate() error {
	if g.Channels <= 0 || g.DiesPerChan <= 0 || g.PlanesPerDie <= 0 ||
		g.BlocksPerPlan <= 0 || g.PagesPerBlock <= 0 {
		return fmt.Errorf("nand: non-positive geometry field: %+v", g)
	}
	// The FTL numbers host and physical slices in int32.
	slices := int64(1)
	for _, f := range [...]int{g.Channels, g.DiesPerChan, g.PlanesPerDie, g.BlocksPerPlan,
		g.PagesPerBlock, slicesPerPage} {
		if int64(f) > math.MaxInt32/slices {
			return fmt.Errorf("nand: geometry %+v has over %d raw slices, the FTL's int32 limit",
				g, math.MaxInt32)
		}
		slices *= int64(f)
	}
	return nil
}

// Dies reports the total die count.
func (g Geometry) Dies() int { return g.Channels * g.DiesPerChan }

// Blocks reports the total block count.
func (g Geometry) Blocks() int { return g.Dies() * g.PlanesPerDie * g.BlocksPerPlan }

// SlicesPerBlock reports how many host slices fit one block.
func (g Geometry) SlicesPerBlock() int { return slicesPerPage * g.PagesPerBlock }

// Timing holds raw NAND and channel timings. The defaults are calibrated so
// a 4 KiB random read costs ~20 µs inside the device; the NVMe controller
// adds ~5 µs, matching the paper's 25 µs standalone read.
type Timing struct {
	ReadPage    sim.Duration // cell-to-register (tR)
	ProgramPage sim.Duration // register-to-cell (tPROG)
	EraseBlock  sim.Duration // tBERS
	XferPerKiB  sim.Duration // channel transfer per KiB
	// ReadJitterSigma is the lognormal sigma of small per-op read-time
	// variation (ECC retries, cell position); 0 disables jitter.
	ReadJitterSigma float64
	// DeviceSpread is the relative device-to-device variation of ReadPage
	// (NAND binning): each device draws a fixed factor in
	// [1-DeviceSpread, 1+DeviceSpread] at construction. Besides being
	// physically real, this keeps a fleet of identical closed-loop QD1
	// streams from phase-locking at shared fabric links.
	DeviceSpread float64
}

// MLC3DTiming returns timing for the paper's 3D MLC NAND.
func MLC3DTiming() Timing {
	return Timing{
		ReadPage:    14 * sim.Microsecond,
		ProgramPage: 650 * sim.Microsecond,
		EraseBlock:  3 * sim.Millisecond,
		XferPerKiB:  1250 * sim.Nanosecond, // 800 MB/s ONFI channel
		// Real tR varies by cell position, retry state, and temperature;
		// ±1-2 µs of per-op spread also keeps independent QD1 streams from
		// phase-locking into artificial convoys at shared fabric links.
		ReadJitterSigma: 0.08,
		DeviceSpread:    0.02,
	}
}

// ZNANDTiming returns timing for a Z-NAND-class ultra-low-latency device
// ("Faster than Flash": SLC-mode cells, short wordlines, ~3 µs reads).
// A 4 KiB random read costs ~2.7 µs inside the device; the slimmed ULL
// controller path (nvme.SpecZNAND) adds ~1 µs more. At this scale the
// host software stack — not the media — dominates end-to-end latency,
// which is the regime where the 2018 paper's tunings invert.
func ZNANDTiming() Timing {
	return Timing{
		ReadPage:    1700 * sim.Nanosecond,
		ProgramPage: 100 * sim.Microsecond,
		EraseBlock:  1 * sim.Millisecond,
		XferPerKiB:  250 * sim.Nanosecond, // ~4 GB/s channel, 4 KiB in ~1 µs
		// SLC-mode cells need fewer ECC retries: tighter per-op jitter
		// and binning spread than the MLC part.
		ReadJitterSigma: 0.04,
		DeviceSpread:    0.01,
	}
}

// Stats exposes FTL counters.
type Stats struct {
	HostReads     int64
	HostWrites    int64
	UnmappedRead  int64 // FOB reads (LBA never written)
	UnmappedWrite int64 // writes past LogicalSlices: timed, never mapped
	GCRuns        int64
	GCPageMoves   int64
	Erases        int64
}

// blockMeta is the FTL state of one opened block. lbas[i] is the host
// slice stored at slice i, or -1 once invalidated; len(lbas) is the
// block's write pointer, so an erased block has none.
type blockMeta struct {
	valid int
	lbas  []int32
}

// dieFTL is one die's share of the block table, plus the write slot of
// the host slices striped to that die.
type dieFTL struct {
	// blocks holds the die's opened blocks by rank: block bi lives on die
	// bi % Dies() at rank bi / Dies(), and a die opens its ranks in order,
	// so len(blocks) is the rank of its next never-opened block.
	blocks []blockMeta
	// open is the block this slot writes into, -1 if none. It sits on
	// another die when this one had no free block left.
	open int
	// stage is the slot's first reverse-map chunk: a never-opened block
	// fills it before its map grows, so lightly written blocks stay
	// small. nil when a full map is no larger.
	stage []int32
}

// Block-table sizing. Each die's initial table capacity and each slot's
// stage chunk are cut from one slab apiece when the write path is built,
// so opening a die's first blocks allocates nothing; a Table I device
// pays 8 KiB for each instead of 245,632 block records. A block that
// outgrows its reverse map gets one mapGrowth times larger, capped at
// SlicesPerBlock: 64, 256, then 1024 slices on Table I.
const (
	slabBlocksPerDie = 8
	stageSlices      = 64
	mapGrowth        = 4
)

// jitterBatch is how many read-jitter normals a device draws at once:
// their transcendental chains then run side by side instead of one per
// read.
const jitterBatch = 32

// jitterKey is the ReadPage and the bits of ReadJitterSigma that a
// device's derived die times were taken at.
type jitterKey struct {
	readPage sim.Duration
	sigma    uint64
}

// regionShift sizes the written-region filter: one bit per 4,096 host
// slices, 7.5 KiB on a Table I device.
const regionShift = 12

// Device is one SSD's flash array plus FTL.
type Device struct {
	Geom   Geometry
	Timing Timing

	eng *sim.Engine
	rnd *rng.Stream

	// Per-die next-free instant (plane-level parallelism folded in).
	// Physical die occupancy, not FTL state: Format does not idle the
	// dies, so reset leaves it alone by contract (TestFormatFieldPolicy).
	dieFree []sim.Time //afalint:sticky -- physical die occupancy survives Format

	// The FTL write path is built lazily on first write, so a FOB device
	// running the paper's read-only methodology allocates none of it.
	// Once built it costs O(dies) plus the blocks actually opened and the
	// forward table's pages.
	mapping ftlMap // host slice → block*SlicesPerBlock + slice; empty until the first write
	// written has one bit per 1<<regionShift host slices, set by the
	// region's first write. A clear bit means no slice there is mapped,
	// so reads and first writes in it skip the map.
	written []uint64
	dies    []dieFTL
	// recycled holds erased GC victims, oldest first.
	recycled []int
	// free counts never-opened plus recycled blocks.
	free int
	// Counters are preserved across Format by contract (see Format's
	// doc and TestFormatFieldPolicy), so reset must not zero them.
	stats Stats //afalint:sticky -- counters survive Format by contract

	// Read jitter drawn a batch ahead of rnd: the last jitterLeft of
	// jitterZ are the stream's next standard normals, and jitterTR holds
	// the die times they give at jitterOf. Tests may retime a device
	// after construction, so a new ReadPage or σ rebuilds jitterTR.
	// Format leaves the lookahead alone, like rnd itself.
	jitterZ    [jitterBatch]float64      //afalint:sticky -- stream state, like rnd
	jitterTR   [jitterBatch]sim.Duration //afalint:sticky -- derived from jitterZ and Timing
	jitterLeft int                       //afalint:sticky -- stream state, like rnd
	jitterOf   jitterKey                 //afalint:sticky -- derived from Timing

	logicalSlices int64 //afalint:sticky -- derived from Geom
}

// NewDevice builds a device in the FOB state.
func NewDevice(eng *sim.Engine, g Geometry, tm Timing, seed uint64) *Device {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	d := &Device{
		Geom:    g,
		Timing:  tm,
		eng:     eng,
		rnd:     rng.New(seed),
		dieFree: make([]sim.Time, g.Dies()),
	}
	if s := tm.DeviceSpread; s > 0 {
		factor := d.rnd.Uniform(1-s, 1+s)
		d.Timing.ReadPage = sim.Duration(float64(tm.ReadPage) * factor)
	}
	d.logicalSlices = d.addressable()
	d.reset()
	return d
}

// freeBlockLow triggers GC when free blocks fall to this count: two per
// die. Greedy victim selection is the only policy implemented.
func (d *Device) freeBlockLow() int { return 2 * d.Geom.Dies() }

func (d *Device) reset() {
	d.mapping = ftlMap{}
	d.written = nil
	d.dies = nil
	d.recycled = nil
	d.free = 0
}

// ensureInit builds the FTL write-path structures on first write: every
// block starts free and never opened, which takes no per-block state.
func (d *Device) ensureInit() {
	if d.dies != nil {
		return
	}
	g := d.Geom
	n := g.Dies()
	regions := (g.Blocks()*g.SlicesPerBlock() + 1<<regionShift - 1) >> regionShift
	d.written = make([]uint64, (regions+63)/64)
	d.dies = make([]dieFTL, n)
	d.free = g.Blocks()
	slab := make([]blockMeta, n*slabBlocksPerDie)
	var stages []int32
	if g.SlicesPerBlock() > stageSlices {
		stages = make([]int32, n*stageSlices)
	}
	for i := range d.dies {
		// Full slice expressions: a die outgrowing its cut reallocates
		// rather than spilling into its neighbour's.
		lo, hi := i*slabBlocksPerDie, (i+1)*slabBlocksPerDie
		d.dies[i] = dieFTL{blocks: slab[lo:lo:hi], open: -1}
		if stages != nil {
			lo, hi = i*stageSlices, (i+1)*stageSlices
			d.dies[i].stage = stages[lo:hi:hi]
		}
	}
}

// block returns block bi's metadata. The pointer is valid only until the
// next block is opened on its die, which may move that die's table.
func (d *Device) block(bi int) *blockMeta {
	n := d.Geom.Dies()
	return &d.dies[bi%n].blocks[bi/n]
}

// Format returns the device to the FOB state (NVMe format, Section III-B).
// Counters are preserved; the mapping and all block contents are discarded.
func (d *Device) Format() { d.reset() }

// FOB reports whether any host data is mapped.
func (d *Device) FOB() bool { return d.mapping.Len() == 0 }

// Stats returns a copy of the FTL counters.
func (d *Device) Stats() Stats { return d.stats }

// LogicalSlices reports the addressable host slice count.
func (d *Device) LogicalSlices() int64 { return d.logicalSlices }

// addressable computes LogicalSlices from Geom: 93% of raw (the modeled
// product's ~7% over-provisioning), further capped so the spare area
// always exceeds the GC trigger threshold — otherwise a small device
// could be logically over-subscribed and GC could never converge.
func (d *Device) addressable() int64 {
	raw := int64(d.Geom.Blocks()) * int64(d.Geom.SlicesPerBlock())
	headroomBlocks := int64(d.freeBlockLow() + d.Geom.Dies() + 2)
	byHeadroom := raw - headroomBlocks*int64(d.Geom.SlicesPerBlock())
	byOP := raw * 93 / 100
	if byHeadroom < byOP {
		return byHeadroom
	}
	return byOP
}

// dieOf maps a host slice to its die by striping across channels first,
// so sequential LBAs exploit channel parallelism.
func (d *Device) dieOf(lba int64) int {
	return int(lba % int64(d.Geom.Dies()))
}

// occupyDie reserves a die for an operation of length dur starting no
// earlier than now, returning the completion instant.
func (d *Device) occupyDie(die int, dur sim.Duration) sim.Time {
	start := d.eng.Now()
	if d.dieFree[die] > start {
		start = d.dieFree[die]
	}
	d.dieFree[die] = start.Add(dur)
	return d.dieFree[die]
}

// readDuration draws a read's die time: rnd.LogNormalMean(ReadPage, σ)
// bit for bit, taken from the lookahead. After NewDevice this is rnd's
// only reader, so drawing a batch ahead changes no value a caller sees.
func (d *Device) readDuration() sim.Duration {
	tr := d.Timing.ReadPage
	if s := d.Timing.ReadJitterSigma; s > 0 {
		if d.jitterLeft == 0 {
			d.rnd.StdNormals(d.jitterZ[:])
			d.jitterLeft = jitterBatch
			d.jitterOf = jitterKey{} // σ > 0, so no live key is zero: rebuild below
		}
		if k := (jitterKey{tr, math.Float64bits(s)}); k != d.jitterOf {
			d.deriveJitter(k, s)
		}
		tr = d.jitterTR[jitterBatch-d.jitterLeft]
		d.jitterLeft--
	}
	xfer := sim.Duration(int64(d.Timing.XferPerKiB) * SliceBytes / 1024)
	return tr + xfer
}

// deriveJitter takes the die times of the unused normals at k, whose σ
// is s: exp(ln ReadPage − σ²/2 + σz), LogNormalMean's draw on the same z.
func (d *Device) deriveJitter(k jitterKey, s float64) {
	if k.readPage <= 0 {
		panic("nand: read jitter with non-positive ReadPage")
	}
	// float64(...) keeps arm64 from fusing the products into FMAs.
	mu := math.Log(float64(k.readPage)) - float64(s*s/2)
	for i := jitterBatch - d.jitterLeft; i < jitterBatch; i++ {
		d.jitterTR[i] = sim.Duration(math.Exp(mu + float64(s*d.jitterZ[i])))
	}
	d.jitterOf = k
}

// Read services a 4 KiB host read of the given slice LBA and returns the
// delay until data is in the controller buffer (including die contention).
// FOB/unmapped reads cost a full deterministic read, mirroring how the
// testbed's FOB devices behaved (the paper measured 25 µs against
// freshly formatted drives). A slice past LogicalSlices reads as
// unmapped.
func (d *Device) Read(lba int64) sim.Duration {
	d.stats.HostReads++
	die := d.dieOf(lba)
	if p, ok := d.lookup(lba); ok {
		die = int(p) / d.Geom.SlicesPerBlock() % d.Geom.Dies()
	} else {
		d.stats.UnmappedRead++
	}
	done := d.occupyDie(die, d.readDuration())
	return done.Sub(d.eng.Now())
}

// lookup returns the physical slice holding host slice lba. It probes
// the map only inside a written region, so a slice in a never-written
// region, or outside the device, costs no map access.
func (d *Device) lookup(lba int64) (phys int32, ok bool) {
	r := uint64(lba) >> regionShift
	if r/64 >= uint64(len(d.written)) || d.written[r/64]&(1<<(r%64)) == 0 {
		return 0, false
	}
	return d.mapping.get(int32(lba))
}

// Write services a 4 KiB host write and returns the delay until the
// program completes, including any foreground GC it triggered.
func (d *Device) Write(lba int64) sim.Duration {
	total, _ := d.WriteWithGC(lba)
	return total
}

// WriteWithGC is Write, also reporting the foreground-GC portion of the
// delay separately (the NVMe cache model applies backpressure only for
// that part — transient die-queue waits are absorbed by the cache).
// A write at or past LogicalSlices has no slot in the FTL: it is timed
// on its striped die and counted as an UnmappedWrite, but maps nothing.
// A negative slice panics.
func (d *Device) WriteWithGC(lba int64) (total, gc sim.Duration) {
	if lba < 0 {
		panic(fmt.Sprintf("nand: write to negative slice %d", lba))
	}
	d.ensureInit()
	d.stats.HostWrites++
	start := d.eng.Now()
	var gcDelay sim.Duration
	startFree := d.free
	for passes := 0; d.free <= d.freeBlockLow(); passes++ {
		// Safety valves: if repeated passes reclaim no block-level slack
		// (every victim nearly fully valid), stop — the host keeps writing
		// into the remaining free blocks rather than livelocking.
		if passes >= 16 && d.free <= startFree {
			break
		}
		if passes >= 64 {
			break
		}
		moved := d.collect()
		if moved < 0 {
			break // nothing collectible; device genuinely full
		}
		gcDelay += sim.Duration(moved)
	}
	die := d.dieOf(lba)
	if lba < d.LogicalSlices() {
		die = d.place(lba) % d.Geom.Dies()
	} else {
		d.stats.UnmappedWrite++
	}
	prog := d.Timing.ProgramPage / slicesPerPage
	xfer := sim.Duration(int64(d.Timing.XferPerKiB) * SliceBytes / 1024)
	done := d.occupyDie(die, gcDelay+prog+xfer)
	return done.Sub(start), gcDelay
}

// place writes lba, which must lie in [0, LogicalSlices), to a fresh
// slice, invalidating its previous copy, and returns the block it
// landed in.
func (d *Device) place(lba int64) int {
	spb := d.Geom.SlicesPerBlock()
	r := lba >> regionShift
	if w := &d.written[r/64]; *w&(1<<(r%64)) == 0 {
		*w |= 1 << (r % 64) // the region's first write: no old copy
	} else if p, ok := d.mapping.get(int32(lba)); ok {
		blk := d.block(int(p) / spb)
		blk.valid--
		blk.lbas[int(p)%spb] = -1
	}
	bi, s := d.allocSlice(lba)
	d.mapping.set(int32(lba), int32(bi*spb+s))
	return bi
}

// allocSlice appends lba to its slot's open block, opening a fresh one as
// needed.
func (d *Device) allocSlice(lba int64) (blkIdx, slice int) {
	die := d.dieOf(lba)
	spb := d.Geom.SlicesPerBlock()
	slot := &d.dies[die]
	if slot.open < 0 || len(d.block(slot.open).lbas) >= spb {
		slot.open = d.popFree(die)
	}
	blk := d.block(slot.open)
	if blk.lbas == nil {
		blk.lbas = slot.stage[:0] // never opened: start in the stage chunk
	}
	s := len(blk.lbas)
	if s == cap(blk.lbas) {
		// Outgrew its map (or had none): grow it, leaving a stage chunk
		// to the slot's next never-opened block.
		grown := make([]int32, s, min(max(mapGrowth*s, stageSlices), spb))
		copy(grown, blk.lbas)
		blk.lbas = grown
	}
	blk.lbas = blk.lbas[:s+1]
	blk.lbas[s] = int32(lba)
	blk.valid++
	return slot.open, s
}

// popFree opens a free block for die's write slot in the order one free
// list of all blocks would give, never-opened blocks by index and then
// recycled ones oldest first: the die's own next never-opened block, else
// its oldest recycled one, else the lowest never-opened block on any die,
// else the oldest recycled block anywhere.
func (d *Device) popFree(die int) int {
	if bi := d.nextUnopened(die); bi >= 0 {
		return d.openUnopened(bi)
	}
	n := d.Geom.Dies()
	for i, bi := range d.recycled {
		if bi%n == die {
			return d.takeRecycled(i)
		}
	}
	lowest := -1
	for k := range d.dies {
		if bi := d.nextUnopened(k); bi >= 0 && (lowest < 0 || bi < lowest) {
			lowest = bi
		}
	}
	if lowest >= 0 {
		return d.openUnopened(lowest)
	}
	if len(d.recycled) == 0 {
		panic("nand: out of free blocks (GC failed to reclaim)")
	}
	return d.takeRecycled(0)
}

// nextUnopened returns die's lowest never-opened block, or -1 if it has
// opened them all.
func (d *Device) nextUnopened(die int) int {
	rank := len(d.dies[die].blocks)
	if rank >= d.Geom.PlanesPerDie*d.Geom.BlocksPerPlan {
		return -1
	}
	return rank*d.Geom.Dies() + die
}

// openUnopened opens never-opened block bi, the next rank of its die.
func (d *Device) openUnopened(bi int) int {
	die := &d.dies[bi%d.Geom.Dies()]
	die.blocks = append(die.blocks, blockMeta{})
	d.free--
	return bi
}

// takeRecycled removes and returns the i-th recycled block.
func (d *Device) takeRecycled(i int) int {
	bi := d.recycled[i]
	copy(d.recycled[i:], d.recycled[i+1:])
	d.recycled = d.recycled[:len(d.recycled)-1]
	d.free--
	return bi
}

// collect performs one greedy GC pass: pick the fullest-invalid block,
// relocate its valid slices, erase it. It returns the simulated nanoseconds
// the pass cost, or -1 when no victim exists.
func (d *Device) collect() int64 {
	n := d.Geom.Dies()
	spb := d.Geom.SlicesPerBlock()
	ranks := 0
	for k := range d.dies {
		ranks = max(ranks, len(d.dies[k].blocks))
	}
	// Never-opened blocks cannot be victims, so visiting the opened ones
	// rank by rank, die by die, is global index order: ties go to the
	// lowest index.
	victim := -1
	best := 1 << 30
	for rank := 0; rank < ranks; rank++ {
		for die := range d.dies {
			blocks := d.dies[die].blocks
			if rank >= len(blocks) {
				continue
			}
			blk := &blocks[rank]
			if len(blk.lbas) < spb || blk.valid >= best {
				continue // only closed blocks are victims
			}
			if bi := rank*n + die; !d.isOpen(bi) {
				best, victim = blk.valid, bi
			}
		}
	}
	if victim < 0 {
		return -1
	}
	var cost sim.Duration
	d.stats.GCRuns++
	// Relocation may open a block on the victim's die and move its table,
	// so the victim is looked up again for the erase below.
	for _, lba := range d.block(victim).lbas {
		if lba < 0 {
			continue
		}
		// Relocate: read + program elsewhere.
		cost += d.readDuration()
		nb, ns := d.allocSlice(int64(lba))
		d.mapping.set(lba, int32(nb*spb+ns))
		cost += d.Timing.ProgramPage / slicesPerPage
		d.stats.GCPageMoves++
	}
	// Erase the victim; it keeps its map buffer for its next opening.
	cost += d.Timing.EraseBlock
	d.stats.Erases++
	blk := d.block(victim)
	blk.valid = 0
	blk.lbas = blk.lbas[:0]
	d.recycled = append(d.recycled, victim)
	d.free++
	return int64(cost)
}

func (d *Device) isOpen(bi int) bool {
	for k := range d.dies {
		if d.dies[k].open == bi {
			return true
		}
	}
	return false
}

// Precondition sequentially fills fraction frac of the logical space,
// leaving the device in a used (non-FOB) state for the GC extension study.
// It advances no simulated time; only the mapping state changes. frac
// must lie in [0, 1].
func (d *Device) Precondition(frac float64) {
	if !(frac >= 0 && frac <= 1) {
		panic(fmt.Sprintf("nand: Precondition fraction %v outside [0, 1]", frac))
	}
	d.ensureInit()
	n := int64(float64(d.LogicalSlices()) * frac)
	for lba := int64(0); lba < n; lba++ {
		if d.free <= d.freeBlockLow() {
			d.collect()
		}
		d.place(lba)
	}
}
