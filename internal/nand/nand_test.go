package nand

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sim"
)

func rngStream(seed uint64) *rng.Stream { return rng.New(seed) }

func newTiny(t *testing.T) (*sim.Engine, *Device) {
	t.Helper()
	eng := sim.NewEngine()
	return eng, NewDevice(eng, TinyGeometry(), MLC3DTiming(), 1)
}

func TestGeometryValidate(t *testing.T) {
	if err := TableIGeometry().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := TinyGeometry()
	bad.Channels = 0
	if bad.Validate() == nil {
		t.Fatal("zero channels accepted")
	}
}

func TestTableIGeometryCapacity(t *testing.T) {
	g := TableIGeometry()
	raw := int64(g.Blocks()) * int64(g.PagesPerBlock) * pageBytes
	// Must be near 1.03 TB raw for a 960 GB drive with ~7% OP.
	if raw < 1000e9 || raw > 1100e9 {
		t.Fatalf("raw capacity = %.1f GB, want ≈1030", float64(raw)/1e9)
	}
	eng := sim.NewEngine()
	d := NewDevice(eng, g, MLC3DTiming(), 1)
	logical := d.LogicalSlices() * SliceBytes
	if logical < 930e9 || logical > 990e9 {
		t.Fatalf("logical capacity = %.1f GB, want ≈960", float64(logical)/1e9)
	}
}

func TestFOBReadIsDeterministicWithoutJitter(t *testing.T) {
	eng := sim.NewEngine()
	g := TinyGeometry()
	tm := MLC3DTiming()
	tm.ReadJitterSigma = 0
	tm.DeviceSpread = 0
	d := NewDevice(eng, g, tm, 1)
	if !d.FOB() {
		t.Fatal("fresh device not FOB")
	}
	d1 := d.Read(100)
	eng.RunUntil(eng.Now().Add(time100us))
	d2 := d.Read(200)
	if d1 != d2 {
		t.Fatalf("FOB reads differ: %v vs %v", d1, d2)
	}
	want := tm.ReadPage + 4*tm.XferPerKiB
	if d1 != want {
		t.Fatalf("FOB read = %v, want %v", d1, want)
	}
}

const time100us = 100 * sim.Microsecond

func TestReadLatencyNearDeviceBudget(t *testing.T) {
	// Device-internal read must be ≈20µs so controller+fabric lands at the
	// paper's 25µs/30µs.
	eng := sim.NewEngine()
	d := NewDevice(eng, TableIGeometry(), MLC3DTiming(), 1)
	var sum sim.Duration
	const n = 1000
	for i := 0; i < n; i++ {
		sum += d.Read(int64(i * 7919))
		eng.RunUntil(eng.Now().Add(time100us))
	}
	avg := sum / n
	if avg < 17*sim.Microsecond || avg > 22*sim.Microsecond {
		t.Fatalf("average device read = %v, want ≈19-20µs", avg)
	}
}

func TestDieContentionSerializesReads(t *testing.T) {
	eng, d := newTiny(t)
	lba := int64(0)
	d1 := d.Read(lba)
	d2 := d.Read(lba) // same die, same instant
	if d2 < d1 {
		t.Fatalf("second read on busy die returned earlier: %v < %v", d2, d1)
	}
	if d2 < d1+d.Timing.ReadPage {
		t.Fatalf("second read (%v) should queue behind first (%v)", d2, d1)
	}
	_ = eng
}

func TestDifferentDiesProceedInParallel(t *testing.T) {
	_, d := newTiny(t)
	d1 := d.Read(0) // die 0
	d2 := d.Read(1) // die 1
	diff := d2 - d1
	if diff < 0 {
		diff = -diff
	}
	// Jitter only; must not include a full serialized read.
	if diff > d.Timing.ReadPage/2 {
		t.Fatalf("reads on distinct dies serialized: %v vs %v", d1, d2)
	}
}

func TestWriteMapsAndReadFollows(t *testing.T) {
	eng, d := newTiny(t)
	d.Write(42)
	if d.FOB() {
		t.Fatal("device still FOB after write")
	}
	eng.RunUntil(eng.Now().Add(10 * sim.Millisecond))
	d.Read(42)
	st := d.Stats()
	if st.HostWrites != 1 || st.HostReads != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.UnmappedRead != 0 {
		t.Fatal("read of written LBA counted as unmapped")
	}
}

func TestUnmappedReadCounted(t *testing.T) {
	_, d := newTiny(t)
	d.Read(999)
	if d.Stats().UnmappedRead != 1 {
		t.Fatal("unmapped read not counted")
	}
}

func TestFormatRestoresFOB(t *testing.T) {
	eng, d := newTiny(t)
	for i := int64(0); i < 100; i++ {
		d.Write(i)
		eng.RunUntil(eng.Now().Add(sim.Millisecond))
	}
	d.Format()
	if !d.FOB() {
		t.Fatal("Format did not restore FOB")
	}
	// The device must be fully writable again: all blocks free.
	d.Write(1)
	if d.free != d.Geom.Blocks()-1 {
		t.Fatalf("free blocks after format+1 write = %d, want %d", d.free, d.Geom.Blocks()-1)
	}
}

func TestFOBReadAllocatesNoFTL(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, TableIGeometry(), MLC3DTiming(), 1)
	for i := int64(0); i < 1000; i++ {
		d.Read(i * 131)
		eng.RunUntil(eng.Now().Add(100 * sim.Microsecond))
	}
	if d.dies != nil {
		t.Fatal("read-only FOB workload initialized the FTL write path")
	}
	if !d.FOB() {
		t.Fatal("reads changed FOB state")
	}
}

func TestOverwriteInvalidatesOldCopy(t *testing.T) {
	eng, d := newTiny(t)
	d.Write(7)
	eng.RunUntil(eng.Now().Add(sim.Millisecond))
	e1, _ := d.entry(7)
	d.Write(7)
	e2, _ := d.entry(7)
	if e1 == e2 {
		t.Fatal("overwrite did not relocate")
	}
	if d.block(e1.block).lbas[e1.slice] != -1 {
		t.Fatal("old copy not invalidated")
	}
}

func TestGCReclaimsSpace(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, TinyGeometry(), MLC3DTiming(), 1)
	// Overwrite a small working set far beyond raw capacity; GC must keep
	// the device writable.
	slices := int64(d.Geom.Blocks() * d.Geom.SlicesPerBlock())
	working := slices / 4
	writes := slices * 3
	for i := int64(0); i < writes; i++ {
		d.Write(i % working)
		eng.RunUntil(eng.Now().Add(10 * sim.Microsecond))
	}
	st := d.Stats()
	if st.GCRuns == 0 || st.Erases == 0 {
		t.Fatalf("GC never ran under overwrite pressure: %+v", st)
	}
	if st.HostWrites != writes {
		t.Fatalf("writes = %d, want %d", st.HostWrites, writes)
	}
}

func TestGCCausesWriteLatencySpikes(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, TinyGeometry(), MLC3DTiming(), 1)
	slices := int64(d.Geom.Blocks() * d.Geom.SlicesPerBlock())
	var worst, base sim.Duration
	for i := int64(0); i < slices*3; i++ {
		w := d.Write(i % (slices / 4))
		if w > worst {
			worst = w
		}
		if base == 0 {
			base = w
		}
		eng.RunUntil(eng.Now().Add(10 * sim.Microsecond))
	}
	if worst < base+d.Timing.EraseBlock {
		t.Fatalf("no GC spike observed: base=%v worst=%v", base, worst)
	}
}

func TestPreconditionLeavesNonFOB(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, TinyGeometry(), MLC3DTiming(), 1)
	d.Precondition(0.5)
	if d.FOB() {
		t.Fatal("preconditioned device still FOB")
	}
	if got := int64(d.mapping.Len()); got != d.LogicalSlices()/2 {
		t.Fatalf("mapped slices = %d, want %d", got, d.LogicalSlices()/2)
	}
	if eng.Now() != 0 {
		t.Fatal("Precondition advanced simulated time")
	}
}

// Regression: random writes over the full logical space (worst-case
// utilization) must not livelock GC. An earlier version over-subscribed
// small devices — the logical space exceeded what the GC trigger threshold
// left as spare — and the collect loop span forever on all-valid victims.
func TestGCFullSpanRandomWritesTerminate(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, TinyGeometry(), MLC3DTiming(), 5)
	r := rngStream(9)
	max := d.LogicalSlices()
	for i := 0; i < 20000; i++ {
		d.Write(r.Int63n(max))
		eng.RunUntil(eng.Now().Add(10 * sim.Microsecond))
	}
	if d.Stats().GCRuns == 0 {
		t.Fatal("GC never ran at full-span utilization")
	}
}

// Invariant: logical capacity always leaves more spare blocks than the GC
// trigger threshold, so GC can converge.
func TestLogicalCapacityLeavesGCHeadroom(t *testing.T) {
	for _, g := range []Geometry{TinyGeometry(), TableIGeometry()} {
		d := NewDevice(sim.NewEngine(), g, MLC3DTiming(), 1)
		raw := int64(g.Blocks()) * int64(g.SlicesPerBlock())
		spareBlocks := (raw - d.LogicalSlices()) / int64(g.SlicesPerBlock())
		if spareBlocks <= int64(d.freeBlockLow()) {
			t.Fatalf("%+v: spare %d blocks ≤ GC threshold %d", g, spareBlocks, d.freeBlockLow())
		}
	}
}

// Property: the FTL never loses data — after any sequence of writes the
// mapping points every written LBA at a live slice holding that LBA.
func TestPropertyMappingConsistent(t *testing.T) {
	f := func(ops []uint8) bool {
		eng := sim.NewEngine()
		d := NewDevice(eng, TinyGeometry(), MLC3DTiming(), 2)
		for _, op := range ops {
			d.Write(int64(op % 64))
			eng.RunUntil(eng.Now().Add(10 * sim.Microsecond))
		}
		return checkFTL(d) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestFormatFieldPolicy is the new-field tripwire for Device's reset
// contract (afalint resetcover): every field of Device must be
// explicitly classified as either restored by Format (zeroed back to
// the FOB state) or preserved across it (//afalint:sticky on the
// declaration). Adding a field without deciding — and asserting — its
// Format behavior fails this test, which is exactly the cross-run
// state leak the state-integrity rules exist to prevent.
func TestFormatFieldPolicy(t *testing.T) {
	policy := map[string]string{
		// Configuration and identity: Format does not reconfigure.
		"Geom":   "preserved",
		"Timing": "preserved",
		"eng":    "preserved",
		"rnd":    "preserved",
		// Physical die occupancy: Format does not idle the dies.
		"dieFree": "preserved",
		// Counters survive Format by documented contract.
		"stats": "preserved",
		// The read-jitter lookahead: rnd's next normals and the die
		// times derived from them. Stream state, like rnd.
		"jitterZ":    "preserved",
		"jitterTR":   "preserved",
		"jitterLeft": "preserved",
		"jitterOf":   "preserved",
		// Derived from Geom.
		"logicalSlices": "preserved",
		// The FTL proper: back to FOB.
		"mapping":  "restored",
		"written":  "restored",
		"dies":     "restored",
		"recycled": "restored",
		"free":     "restored",
	}
	dt := reflect.TypeOf(Device{})
	for i := 0; i < dt.NumField(); i++ {
		name := dt.Field(i).Name
		if _, ok := policy[name]; !ok {
			t.Errorf("Device field %s has no Format policy: decide whether Format restores or preserves it, assert that below, and add it to this map (and to reset() or //afalint:sticky)", name)
		}
	}
	for name := range policy {
		if _, ok := dt.FieldByName(name); !ok {
			t.Errorf("Format policy lists %s but Device has no such field; delete the stale entry", name)
		}
	}

	eng, d := newTiny(t)
	for i := int64(0); i < 50; i++ {
		d.Write(i)
		eng.RunUntil(eng.Now().Add(sim.Millisecond))
	}
	d.Read(999) // bump UnmappedRead too
	preStats := d.stats
	preDieFree := append([]sim.Time(nil), d.dieFree...)
	preGeom, preTiming := d.Geom, d.Timing
	preEng, preRnd := d.eng, d.rnd
	preZ, preTR, preLeft, preOf := d.jitterZ, d.jitterTR, d.jitterLeft, d.jitterOf
	preLogical := d.logicalSlices
	if preStats.HostWrites == 0 || d.FOB() || preLeft == 0 || preOf == (jitterKey{}) {
		t.Fatalf("workload did not exercise the FTL: stats = %+v", preStats)
	}

	d.Format()

	// Restored fields: byte-for-byte the FOB state.
	if !reflect.ValueOf(d.mapping).IsZero() || d.written != nil || d.dies != nil || d.recycled != nil || d.free != 0 {
		t.Errorf("Format left FTL state behind: mapping=%d written=%d dies=%d recycled=%d free=%d",
			d.mapping.Len(), len(d.written), len(d.dies), len(d.recycled), d.free)
	}
	// Preserved fields: untouched.
	if d.stats != preStats {
		t.Errorf("Format changed stats: %+v -> %+v", preStats, d.stats)
	}
	if !reflect.DeepEqual(d.dieFree, preDieFree) {
		t.Errorf("Format changed dieFree: %v -> %v", preDieFree, d.dieFree)
	}
	if d.Geom != preGeom || d.Timing != preTiming {
		t.Error("Format changed configuration (Geom/Timing)")
	}
	if d.eng != preEng || d.rnd != preRnd {
		t.Error("Format rebound the engine or rng stream")
	}
	if !reflect.DeepEqual(d.jitterZ, preZ) || d.jitterTR != preTR || d.jitterLeft != preLeft || d.jitterOf != preOf {
		t.Error("Format changed the read-jitter lookahead")
	}
	if d.logicalSlices != preLogical || preLogical != d.addressable() {
		t.Errorf("Format changed logicalSlices: %d -> %d", preLogical, d.logicalSlices)
	}
}

// mapEntry is a forward-map entry unpacked into (block, slice).
type mapEntry struct {
	block int
	slice int
}

// entry returns lba's forward-map entry, unpacked, straight from the map:
// unlike lookup it does not consult the written-region filter.
func (d *Device) entry(lba int64) (mapEntry, bool) {
	p, ok := d.mapping.get(int32(lba))
	if !ok {
		return mapEntry{}, false
	}
	spb := d.Geom.SlicesPerBlock()
	return mapEntry{block: int(p) / spb, slice: int(p) % spb}, true
}

// regionWritten reports whether lba's written-region bit is set.
func (d *Device) regionWritten(lba int64) bool {
	r := lba >> regionShift
	return d.written != nil && d.written[r/64]&(1<<(r%64)) != 0
}

// checkFTL verifies the block table against the mapping: every mapped
// LBA lies in a written region and points at a live slice holding it,
// every live slice is mapped there, and each opened block's valid count
// is its live-slice count.
func checkFTL(d *Device) error {
	for _, lba := range d.mapping.keys() {
		e, _ := d.entry(int64(lba))
		if lbas := d.block(e.block).lbas; e.slice >= len(lbas) || lbas[e.slice] != lba {
			return fmt.Errorf("lba %d maps to block %d slice %d, which does not hold it", lba, e.block, e.slice)
		}
		if !d.regionWritten(int64(lba)) {
			return fmt.Errorf("lba %d is mapped but its region is not marked written", lba)
		}
	}
	n := d.Geom.Dies()
	for die := range d.dies {
		for rank, blk := range d.dies[die].blocks {
			bi := rank*n + die
			if len(blk.lbas) > d.Geom.SlicesPerBlock() {
				return fmt.Errorf("block %d holds %d slices, over %d", bi, len(blk.lbas), d.Geom.SlicesPerBlock())
			}
			live := 0
			for s, lba := range blk.lbas {
				if lba < 0 {
					continue
				}
				live++
				if e, ok := d.entry(int64(lba)); !ok || e != (mapEntry{block: bi, slice: s}) {
					return fmt.Errorf("block %d slice %d holds lba %d, mapped to %+v", bi, s, lba, e)
				}
			}
			if live != blk.valid {
				return fmt.Errorf("block %d: valid = %d, live slices = %d", bi, blk.valid, live)
			}
		}
	}
	return nil
}

func TestPreconditionRejectsFractionOutsideUnit(t *testing.T) {
	for _, tc := range []struct {
		frac float64
		ok   bool
	}{
		{0, true},
		{0.5, true},
		{1, true},
		{-0.01, false},
		{1.01, false},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
	} {
		t.Run(fmt.Sprint(tc.frac), func(t *testing.T) {
			d := NewDevice(sim.NewEngine(), TinyGeometry(), MLC3DTiming(), 1)
			defer func() {
				if r := recover(); (r == nil) != tc.ok {
					t.Fatalf("Precondition(%v) panic = %v, want panic %v", tc.frac, r, !tc.ok)
				}
			}()
			d.Precondition(tc.frac)
		})
	}
}

// The block table grows with the blocks opened, not the device: opening
// one block per die on a Table I device (245,632 blocks) stays small.
func TestFirstWritesAllocateOnlyOpenedBlocks(t *testing.T) {
	eng := sim.NewEngine()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := NewDevice(eng, TableIGeometry(), MLC3DTiming(), 1)
	d.Precondition(0)
	for die := 0; die < d.Geom.Dies(); die++ {
		d.Write(int64(die))
	}
	runtime.ReadMemStats(&after)
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("device + one write per die: %d B in %d objects", bytes, objects)
	if bytes >= 64<<10 || objects >= 200 {
		t.Fatalf("device + one write per die allocated %d B in %d objects, want < 64 KiB and < 200", bytes, objects)
	}
	if err := checkFTL(d); err != nil {
		t.Fatal(err)
	}
}

// Regression: collect relocates the victim's slices before erasing it,
// and a relocation may open a block on the victim's own die, growing
// that die's table past its capacity and moving it. The erase must land
// on the moved table, not on a stale copy.
func TestCollectSurvivesBlockTableGrowth(t *testing.T) {
	g := Geometry{Channels: 1, DiesPerChan: 1, PlanesPerDie: 1, BlocksPerPlan: 16,
		PagesPerBlock: 4}
	eng := sim.NewEngine()
	d := NewDevice(eng, g, MLC3DTiming(), 1)
	spb := int64(g.SlicesPerBlock())
	for lba := int64(0); lba < spb; lba++ { // block 0 full
		d.Write(lba)
	}
	for lba := int64(0); lba < spb; lba++ { // block 1 full: half of 0 rewritten
		d.Write(lba % (spb / 2) * 2)
	}
	blocks := &d.dies[0].blocks
	if len(*blocks) != 2 || d.dies[0].open != 1 {
		t.Fatalf("setup: %d blocks opened, open block %d; want 2 and 1", len(*blocks), d.dies[0].open)
	}
	*blocks = (*blocks)[:2:2] // the next opening must move the table
	if d.collect() < 0 {
		t.Fatal("no victim")
	}
	if len(*blocks) != 3 {
		t.Fatalf("relocation opened %d blocks, want block 2", len(*blocks)-2)
	}
	if v := (*blocks)[0]; v.valid != 0 || len(v.lbas) != 0 {
		t.Fatalf("victim not erased in the live table: valid %d, %d slices", v.valid, len(v.lbas))
	}
	if len(d.recycled) != 1 || d.recycled[0] != 0 {
		t.Fatalf("recycled = %v, want [0]", d.recycled)
	}
	if err := checkFTL(d); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsOverInt32Slices(t *testing.T) {
	g := TableIGeometry() // 251.5 M raw slices
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(*Geometry)
	}{
		{"9x blocks", func(g *Geometry) { g.BlocksPerPlan *= 9 }},
		{"huge pages", func(g *Geometry) { g.PagesPerBlock = math.MaxInt32 }},
		{"overflowing product", func(g *Geometry) { g.Channels, g.DiesPerChan = math.MaxInt64/2, math.MaxInt64/2 }},
	} {
		g := TableIGeometry()
		tc.edit(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: geometry with %d×%d×%d×%d×%d×%d slices accepted", tc.name,
				g.Channels, g.DiesPerChan, g.PlanesPerDie, g.BlocksPerPlan, g.PagesPerBlock, slicesPerPage)
		}
	}
	// The largest geometry that fits is accepted.
	edge := Geometry{Channels: 1, DiesPerChan: 1, PlanesPerDie: 1, BlocksPerPlan: math.MaxInt32 / 4,
		PagesPerBlock: 1}
	if err := edge.Validate(); err != nil {
		t.Fatalf("%d raw slices rejected: %v", int64(edge.Blocks())*int64(edge.SlicesPerBlock()), err)
	}
}

// A write past the logical space maps nothing, so it cannot alias an
// in-range slice; it is still timed and counted.
func TestWritePastLogicalSpaceMapsNothing(t *testing.T) {
	eng, d := newTiny(t)
	logical := d.LogicalSlices()
	d.Write(5)
	eng.RunUntil(eng.Now().Add(sim.Millisecond))
	before, _ := d.entry(5)
	for _, lba := range []int64{logical, logical + 5, 1 << 32, 1<<32 + 5, math.MaxInt64} {
		if got := d.Write(lba); got <= 0 {
			t.Fatalf("Write(%d) took %v", lba, got)
		}
		eng.RunUntil(eng.Now().Add(sim.Millisecond))
	}
	if st := d.Stats(); st.HostWrites != 6 || st.UnmappedWrite != 5 {
		t.Fatalf("stats = %+v, want 6 host writes, 5 unmapped", st)
	}
	if d.mapping.Len() != 1 {
		t.Fatalf("%d slices mapped, want 1", d.mapping.Len())
	}
	if after, ok := d.entry(5); !ok || after != before {
		t.Fatalf("slice 5 moved from %+v to %+v (%v)", before, after, ok)
	}
	for _, lba := range []int64{logical, logical + 5, 1 << 32, math.MaxInt64} {
		d.Read(lba)
	}
	if st := d.Stats(); st.UnmappedRead != 4 {
		t.Fatalf("reads past the logical space: %d unmapped, want 4", st.UnmappedRead)
	}
	if err := checkFTL(d); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Write(-1) did not panic")
			}
		}()
		d.Write(-1)
	}()
}

// jitterStep retimes a device, then reads draws die times from it.
type jitterStep struct {
	draws    int
	readPage sim.Duration
	sigma    float64
}

// requireJitterTwin runs steps on a device and holds every draw to
// rng's LogNormalMean(ReadPage, σ) on a same-seed twin's stream, bit for
// bit, so the lookahead may neither skip, reorder nor misprice a draw.
// A step with σ = 0 draws nothing from either stream. It returns the
// jittered draws checked.
func requireJitterTwin(t *testing.T, seed uint64, steps []jitterStep) int {
	t.Helper()
	tm := MLC3DTiming()
	d := NewDevice(sim.NewEngine(), TinyGeometry(), tm, seed)
	twin := NewDevice(sim.NewEngine(), TinyGeometry(), tm, seed)
	xfer := sim.Duration(int64(tm.XferPerKiB) * SliceBytes / 1024)
	n := 0
	for i, st := range steps {
		d.Timing.ReadPage, d.Timing.ReadJitterSigma = st.readPage, st.sigma
		for j := 0; j < st.draws; j++ {
			want := st.readPage
			if st.sigma > 0 {
				want = sim.Duration(twin.rnd.LogNormalMean(float64(st.readPage), st.sigma))
				n++
			}
			if got := d.readDuration(); got != want+xfer {
				t.Fatalf("step %d (ReadPage %v, σ %v), draw %d (%d jittered so far): %v, want %v",
					i, st.readPage, st.sigma, j, n, got, want+xfer)
			}
		}
	}
	return n
}

// The read-jitter lookahead follows a retimed device: every draw equals
// rng's LogNormalMean on the current ReadPage and σ, bit for bit,
// across batch boundaries, after a retiming at a boundary and inside a
// batch, and through a σ → 0 → σ stretch that must not draw.
func TestReadJitterFollowsRetiming(t *testing.T) {
	rp := NewDevice(sim.NewEngine(), TinyGeometry(), MLC3DTiming(), 3).Timing.ReadPage
	s := MLC3DTiming().ReadJitterSigma
	steps := []jitterStep{
		{jitterBatch, rp, s},     // the first batch, whole
		{5, 3 * rp, s},           // retimed at a batch boundary
		{4, rp, s},               // retimed inside a batch
		{3, rp, 0},               // σ → 0 draws nothing …
		{2, rp, s},               // … and σ resumes the same lookahead
		{3, rp, 2 * s},           // a new σ inside a batch
		{jitterBatch + 5, 1, s},  // the shortest ReadPage, across a boundary
		{jitterBatch, rp + 1, s}, // a 1 ns retiming
	}
	if n := requireJitterTwin(t, 3, steps); n < 3*jitterBatch {
		t.Fatalf("schedule checked %d jittered draws, want at least %d (three batches)", n, 3*jitterBatch)
	}

	d := NewDevice(sim.NewEngine(), TinyGeometry(), MLC3DTiming(), 3)
	d.Timing.ReadPage = 0
	defer func() {
		if recover() == nil {
			t.Fatal("read with zero ReadPage did not panic")
		}
	}()
	d.readDuration()
}

// FuzzReadJitter holds the read-jitter lookahead to its twin stream
// under a fuzzed seed, σ and retiming schedule. Each schedule byte is
// one step: its low five bits are the draws, its top three pick the
// retiming (none, base ReadPage, 3× base, 1 ns, +1 ns, σ = 0, the
// fuzzed σ, half of it).
func FuzzReadJitter(f *testing.F) {
	f.Add(uint64(3), uint16(82), []byte{0x10, 0x45, 0xa4, 0xa3, 0xc2, 0xe3, 0x75, 0x30})
	f.Add(uint64(0), uint16(41), []byte{0x1f, 0x1f, 0x61, 0x8f, 0xb0, 0xdf})
	f.Add(uint64(1<<63), uint16(1023), []byte{0x00, 0x20, 0x40, 0x60, 0x80, 0xa0, 0xc0, 0xe0})
	f.Fuzz(func(t *testing.T, seed uint64, sigma uint16, schedule []byte) {
		if len(schedule) > 256 {
			schedule = schedule[:256]
		}
		fuzzed := float64(sigma%1024) / 1024
		base := NewDevice(sim.NewEngine(), TinyGeometry(), MLC3DTiming(), seed).Timing.ReadPage
		st := jitterStep{readPage: base, sigma: fuzzed}
		steps := make([]jitterStep, 0, len(schedule))
		for _, b := range schedule {
			switch b >> 5 {
			case 1:
				st.readPage = base
			case 2:
				st.readPage = 3 * base
			case 3:
				st.readPage = 1
			case 4:
				st.readPage++
			case 5:
				st.sigma = 0
			case 6:
				st.sigma = fuzzed
			case 7:
				st.sigma = fuzzed / 2
			}
			st.draws = int(b & 0x1f)
			steps = append(steps, st)
		}
		requireJitterTwin(t, seed, steps)
	})
}

// TestFTLFootprint bounds the FTL's heap after 5,000 uniformly random
// writes to a Table I device — about what each device of the open-loop
// 10k-tenant run takes. The block-table and map layout set the figure:
// 8-byte forward-table slots in 4 KiB pages, reverse maps grown from 64
// to 256 slices rather than to a full block, and a 7.5 KiB
// written-region filter keep it near 110 KB, where 24-byte map slots
// and full 8 KiB reverse maps took ~480 KB. Not parallel: it reads the
// process heap.
func TestFTLFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	eng := sim.NewEngine()
	d := NewDevice(eng, TableIGeometry(), MLC3DTiming(), 1)
	r := rng.New(5)
	logical := d.LogicalSlices()
	for i := 0; i < 5000; i++ {
		d.Write(r.Int63n(logical))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(d)
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("Table I device after 5,000 random writes: %d B of heap", heap)
	if heap > 224<<10 {
		t.Fatalf("FTL heap after 5,000 random writes = %d B, want ≤ %d", heap, 224<<10)
	}

	lbas := make([]int64, 0, 64)
	for _, lba := range d.mapping.keys() {
		lbas = append(lbas, int64(lba))
		if len(lbas) == cap(lbas) {
			break
		}
	}
	for i := 0; i < 64; i++ {
		lbas = append(lbas, r.Int63n(logical))
	}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		d.Read(lbas[i%len(lbas)])
		i++
	}); allocs > 0 {
		t.Fatalf("Read allocates %v times per call, want 0", allocs)
	}
}
