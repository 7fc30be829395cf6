package nand

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

// refBlock and refDevice are the FTL as first written: one heap object
// per physical block, all built on the first write, and a single free
// list scanned front to back. They exist only as the reference the
// compact block table must match decision for decision.
type refBlock struct {
	die     int
	valid   int
	written int
	lbas    []int64
	erased  bool
}

type refDevice struct {
	geom    Geometry
	timing  Timing
	gcLow   int
	eng     *sim.Engine
	rnd     *rng.Stream
	dieFree []sim.Time

	initialized bool
	mapping     map[int64]mapEntry
	blocks      []*refBlock
	freeList    []int
	openBlock   []int
	stats       Stats

	// Outcomes of popFree beyond the requested die's own never-opened
	// blocks, so a test can show it reached them: a recycled block of the
	// die; another die's block; and another die's never-opened block
	// taken while recycled blocks were also free.
	recycledPops, otherDiePops, contestedPops int
}

// newRefDevice builds the reference twin of NewDevice(eng, g, tm, seed):
// same timing draw, same rng stream.
func newRefDevice(eng *sim.Engine, g Geometry, tm Timing, seed uint64) *refDevice {
	twin := NewDevice(eng, g, tm, seed)
	return &refDevice{geom: twin.Geom, timing: twin.Timing, gcLow: twin.freeBlockLow(), eng: eng,
		rnd: twin.rnd, dieFree: make([]sim.Time, g.Dies())}
}

func (d *refDevice) Format() {
	d.initialized = false
	d.mapping, d.blocks, d.freeList, d.openBlock = nil, nil, nil, nil
}

func (d *refDevice) ensureInit() {
	if d.initialized {
		return
	}
	d.initialized = true
	g := d.geom
	d.mapping = make(map[int64]mapEntry)
	d.blocks = make([]*refBlock, g.Blocks())
	d.freeList = make([]int, 0, g.Blocks())
	for b := range d.blocks {
		d.blocks[b] = &refBlock{die: b % g.Dies(), erased: true}
		d.freeList = append(d.freeList, b)
	}
	d.openBlock = make([]int, g.Dies())
	for i := range d.openBlock {
		d.openBlock[i] = -1
	}
}

func (d *refDevice) dieOf(lba int64) int { return int(lba % int64(d.geom.Dies())) }

func (d *refDevice) occupyDie(die int, dur sim.Duration) sim.Time {
	start := d.eng.Now()
	if d.dieFree[die] > start {
		start = d.dieFree[die]
	}
	d.dieFree[die] = start.Add(dur)
	return d.dieFree[die]
}

func (d *refDevice) readDuration() sim.Duration {
	tr := d.timing.ReadPage
	if s := d.timing.ReadJitterSigma; s > 0 {
		tr = sim.Duration(d.rnd.LogNormalMean(float64(tr), s))
	}
	return tr + sim.Duration(int64(d.timing.XferPerKiB)*SliceBytes/1024)
}

func (d *refDevice) Read(lba int64) sim.Duration {
	d.stats.HostReads++
	die := d.dieOf(lba)
	if e, ok := d.mapping[lba]; ok {
		die = d.blocks[e.block].die
	} else {
		d.stats.UnmappedRead++
	}
	return d.occupyDie(die, d.readDuration()).Sub(d.eng.Now())
}

func (d *refDevice) WriteWithGC(lba int64) (total, gc sim.Duration) {
	d.ensureInit()
	d.stats.HostWrites++
	start := d.eng.Now()
	var gcDelay sim.Duration
	startFree := len(d.freeList)
	for passes := 0; len(d.freeList) <= d.gcLow; passes++ {
		if passes >= 16 && len(d.freeList) <= startFree {
			break
		}
		if passes >= 64 {
			break
		}
		moved := d.collect()
		if moved < 0 {
			break
		}
		gcDelay += sim.Duration(moved)
	}
	if e, ok := d.mapping[lba]; ok {
		blk := d.blocks[e.block]
		blk.valid--
		blk.lbas[e.slice] = -1
	}
	blkIdx, slice := d.allocSlice(lba)
	prog := d.timing.ProgramPage / slicesPerPage
	xfer := sim.Duration(int64(d.timing.XferPerKiB) * SliceBytes / 1024)
	done := d.occupyDie(d.blocks[blkIdx].die, gcDelay+prog+xfer)
	d.mapping[lba] = mapEntry{block: blkIdx, slice: slice}
	return done.Sub(start), gcDelay
}

func (d *refDevice) allocSlice(lba int64) (blkIdx, slice int) {
	die := d.dieOf(lba)
	bi := d.openBlock[die]
	if bi < 0 || d.blocks[bi].written >= d.geom.SlicesPerBlock() {
		bi = d.popFree(die)
		d.openBlock[die] = bi
	}
	blk := d.blocks[bi]
	if blk.lbas == nil {
		blk.lbas = make([]int64, d.geom.SlicesPerBlock())
		for i := range blk.lbas {
			blk.lbas[i] = -1
		}
	}
	s := blk.written
	blk.lbas[s] = lba
	blk.written++
	blk.valid++
	blk.erased = false
	return bi, s
}

func (d *refDevice) popFree(die int) int {
	for i, bi := range d.freeList {
		if d.blocks[bi].die == die {
			if d.blocks[bi].lbas != nil {
				d.recycledPops++
			}
			d.freeList = append(d.freeList[:i], d.freeList[i+1:]...)
			return bi
		}
	}
	if len(d.freeList) == 0 {
		panic("nand: out of free blocks (GC failed to reclaim)")
	}
	bi := d.freeList[0]
	if last := d.freeList[len(d.freeList)-1]; d.blocks[bi].lbas == nil && d.blocks[last].lbas != nil {
		d.contestedPops++
	}
	d.freeList = d.freeList[1:]
	d.otherDiePops++
	return bi
}

func (d *refDevice) collect() int64 {
	victim := -1
	best := 1 << 30
	for bi, blk := range d.blocks {
		if blk.erased || blk.written < d.geom.SlicesPerBlock() || d.isOpen(bi) {
			continue
		}
		if blk.valid < best {
			best = blk.valid
			victim = bi
		}
	}
	if victim < 0 {
		return -1
	}
	blk := d.blocks[victim]
	var cost sim.Duration
	d.stats.GCRuns++
	for _, lba := range blk.lbas {
		if lba < 0 {
			continue
		}
		cost += d.readDuration()
		nb, ns := d.allocSlice(lba)
		d.mapping[lba] = mapEntry{block: nb, slice: ns}
		cost += d.timing.ProgramPage / slicesPerPage
		d.stats.GCPageMoves++
	}
	cost += d.timing.EraseBlock
	d.stats.Erases++
	// The reference keeps lbas allocated but cleared, so popFree can tell
	// a recycled block from a never-opened one.
	for i := range blk.lbas {
		blk.lbas[i] = -1
	}
	blk.valid, blk.written, blk.erased = 0, 0, true
	d.freeList = append(d.freeList, victim)
	return int64(cost)
}

func (d *refDevice) isOpen(bi int) bool {
	for _, ob := range d.openBlock {
		if ob == bi {
			return true
		}
	}
	return false
}

func (d *refDevice) Precondition(frac float64) {
	d.ensureInit()
	n := int64(float64(d.LogicalSlices()) * frac)
	for lba := int64(0); lba < n; lba++ {
		if len(d.freeList) <= d.gcLow {
			d.collect()
		}
		if e, ok := d.mapping[lba]; ok {
			blk := d.blocks[e.block]
			blk.valid--
			blk.lbas[e.slice] = -1
		}
		bi, s := d.allocSlice(lba)
		d.mapping[lba] = mapEntry{block: bi, slice: s}
	}
}

func (d *refDevice) LogicalSlices() int64 {
	twin := Device{Geom: d.geom}
	return twin.addressable()
}

// compareFTL fails the test unless dev and ref hold the same counters,
// free-block count, open blocks, and (block, slice) for every LBA.
func compareFTL(t *testing.T, step int, dev *Device, ref *refDevice) {
	t.Helper()
	if dev.Stats() != ref.stats {
		t.Fatalf("step %d: stats %+v, reference %+v", step, dev.Stats(), ref.stats)
	}
	if dev.free != len(ref.freeList) {
		t.Fatalf("step %d: %d free blocks, reference %d", step, dev.free, len(ref.freeList))
	}
	for die := range dev.dies {
		if dev.dies[die].open != ref.openBlock[die] {
			t.Fatalf("step %d: die %d writes to block %d, reference %d", step, die, dev.dies[die].open, ref.openBlock[die])
		}
	}
	if dev.mapping.Len() != len(ref.mapping) {
		t.Fatalf("step %d: %d mapped LBAs, reference %d", step, dev.mapping.Len(), len(ref.mapping))
	}
	for lba := int64(0); lba < dev.LogicalSlices(); lba++ {
		got, gok := dev.entry(lba)
		want, wok := ref.mapping[lba]
		if got != want || gok != wok {
			t.Fatalf("step %d: lba %d at %+v (%v), reference %+v (%v)", step, lba, got, gok, want, wok)
		}
	}
	if err := checkFTL(dev); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
}

// TestFTLMatchesReference drives the compact block table and the
// reference FTL through the same random operation streams — uniform,
// hot-set and single-die-stripe writes over a near-full device, reads,
// re-preconditioning and formats, then sparse writes with reads aimed at
// the written-region filter — and requires identical durations, GC
// portions, counters and placements throughout.
func TestFTLMatchesReference(t *testing.T) {
	// Two planes per die, and blocks big enough to start in stage chunks.
	twoPlane := Geometry{Channels: 2, DiesPerChan: 2, PlanesPerDie: 2, BlocksPerPlan: 12,
		PagesPerBlock: 32}
	// 512-slice blocks: a block that fills passes every reverse-map size,
	// the stage chunk, 256 slices, then the full map.
	growth := Geometry{Channels: 2, DiesPerChan: 1, PlanesPerDie: 1, BlocksPerPlan: 24,
		PagesPerBlock: 128}
	for _, tc := range []struct {
		name string
		geom Geometry
	}{
		{"tiny", TinyGeometry()},
		{"two-plane", twoPlane},
		{"growth", growth},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const seed, ops = 7, 30000
			eng := sim.NewEngine()
			dev := NewDevice(eng, tc.geom, MLC3DTiming(), seed)
			ref := newRefDevice(eng, tc.geom, MLC3DTiming(), seed)
			r := rng.New(99)
			logical := dev.LogicalSlices()
			dies := int64(tc.geom.Dies())
			write := func(step int, lba int64) {
				got, gotGC := dev.WriteWithGC(lba)
				want, wantGC := ref.WriteWithGC(lba)
				if got != want || gotGC != wantGC {
					t.Fatalf("step %d: WriteWithGC(%d) = %v/%v, reference %v/%v", step, lba, got, gotGC, want, wantGC)
				}
			}
			read := func(step int, lba int64) {
				if got, want := dev.Read(lba), ref.Read(lba); got != want {
					t.Fatalf("step %d: Read(%d) = %v, reference %v", step, lba, got, want)
				}
				if got, want := dev.Stats().UnmappedRead, ref.stats.UnmappedRead; got != want {
					t.Fatalf("step %d: Read(%d) left %d unmapped reads, reference %d", step, lba, got, want)
				}
			}
			// Reverse-map capacities seen on opened blocks.
			mapSizes := map[int]bool{}
			sampleMapSizes := func() {
				for _, slot := range dev.dies {
					for _, blk := range slot.blocks {
						mapSizes[cap(blk.lbas)] = true
					}
				}
			}
			// Prelude: rewrite half of die 0's stripe until GC has run a
			// while. Die 0's slot drains every die's never-opened blocks,
			// so it falls back to other dies while GC victims are free too.
			for step := 0; ref.stats.Erases < int64(tc.geom.Blocks()); step++ {
				write(-step, r.Int63n(logical/dies/2)*dies)
				if step%97 == 0 {
					sampleMapSizes()
				}
			}
			compareFTL(t, -1, dev, ref)
			dev.Format()
			ref.Format()
			dev.Precondition(0.9)
			ref.Precondition(0.9)
			compareFTL(t, -1, dev, ref)
			for step := 0; step < ops; step++ {
				var lba int64
				switch r.Intn(3) {
				case 0:
					lba = r.Int63n(logical)
				case 1:
					lba = r.Int63n(logical / 8)
				default: // one die's stripe: drains that die's free blocks
					lba = r.Int63n(logical/dies)*dies + int64(step/5000)%dies
				}
				switch op := r.Intn(1000); {
				case op < 450:
					if got, want := dev.Write(lba), totalOf(ref.WriteWithGC(lba)); got != want {
						t.Fatalf("step %d: Write(%d) = %v, reference %v", step, lba, got, want)
					}
				case op < 900:
					write(step, lba)
				case op < 995:
					read(step, lba)
				case op < 999:
					frac := r.Float64()
					dev.Precondition(frac)
					ref.Precondition(frac)
				default:
					dev.Format()
					ref.Format()
					dev.Precondition(0.9)
					ref.Precondition(0.9)
				}
				if step%1000 == 0 {
					compareFTL(t, step, dev, ref)
					sampleMapSizes()
				}
				eng.RunUntil(eng.Now().Add(sim.Duration(r.Int63n(int64(20 * sim.Microsecond)))))
			}
			compareFTL(t, ops, dev, ref)
			if ref.stats.GCRuns == 0 {
				t.Fatalf("GC never ran: %+v", ref.stats)
			}
			if ref.recycledPops == 0 || ref.otherDiePops == 0 || ref.contestedPops == 0 {
				t.Fatalf("streams missed a popFree path: %d recycled, %d other-die (%d contested) openings",
					ref.recycledPops, ref.otherDiePops, ref.contestedPops)
			}
			if spb := tc.geom.SlicesPerBlock(); spb > mapGrowth*stageSlices {
				for _, size := range []int{stageSlices, mapGrowth * stageSlices, spb} {
					if !mapSizes[size] {
						t.Fatalf("no opened block held a %d-slice reverse map; saw %v", size, mapSizes)
					}
				}
			}

			// Sparse phase: a few written slices in every other region, and
			// reads of written slices, of unwritten slices inside written
			// regions (the filter's false positives), and of slices in
			// never-written regions.
			dev.Format()
			ref.Format()
			region := int64(1) << regionShift
			var written []int64
			var hits, falsePositives, filtered int
			for step := 0; step < 3000; step++ {
				switch op := r.Intn(3); {
				case op == 0 || len(written) == 0:
					lba := r.Int63n((logical+region-1)/region/2)*2*region + r.Int63n(region/64)
					if lba < logical {
						write(step, lba)
						written = append(written, lba)
					}
				default:
					lba := written[r.Intn(len(written))]
					switch r.Intn(3) {
					case 0: // another slice of the same region
						lba = lba&^(region-1) + r.Int63n(min(region, logical-lba&^(region-1)))
					case 1: // anywhere
						lba = r.Int63n(logical)
					}
					switch _, mapped := ref.mapping[lba]; {
					case mapped:
						hits++
					case dev.regionWritten(lba):
						falsePositives++
					default:
						filtered++
					}
					read(step, lba)
				}
			}
			compareFTL(t, -2, dev, ref)
			if hits == 0 || falsePositives == 0 || filtered == 0 {
				t.Fatalf("sparse reads missed a filter case: %d hits, %d false positives, %d filtered",
					hits, falsePositives, filtered)
			}
			t.Logf("%+v; %d recycled, %d other-die (%d contested) block openings; map sizes %v; sparse reads: %d hits, %d false positives, %d filtered",
				ref.stats, ref.recycledPops, ref.otherDiePops, ref.contestedPops, mapSizes, hits, falsePositives, filtered)
		})
	}
}

func totalOf(total, _ sim.Duration) sim.Duration { return total }
