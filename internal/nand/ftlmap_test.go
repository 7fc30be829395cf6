package nand

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

// keys lists the mapped keys in page and slot order.
func (m *ftlMap) keys() []int32 {
	out := make([]int32, 0, m.n)
	for _, pg := range m.pages {
		for _, s := range pg.slots {
			if s != 0 {
				out = append(out, int32(uint32(s>>32)-1))
			}
		}
	}
	return out
}

// check verifies the table's structure: the directory has 1<<depth
// entries, each page's entries form one aligned run of
// 1<<(depth-local depth), every key sits in the page its directory
// entry names and is reachable by probing from its start slot, and the
// page and table counts match the slots.
func (m *ftlMap) check() error {
	if m.dir == nil {
		if m.pages != nil || m.n != 0 || m.depth != 0 {
			return fmt.Errorf("table without a directory holds %d pages, %d keys, depth %d", len(m.pages), m.n, m.depth)
		}
		return nil
	}
	if len(m.dir) != 1<<m.depth {
		return fmt.Errorf("directory has %d entries at depth %d", len(m.dir), m.depth)
	}
	refs := make([]int, len(m.pages))
	for j, pi := range m.dir {
		pg := m.pages[pi]
		if pg.depth > m.depth {
			return fmt.Errorf("page %d has local depth %d above the directory's %d", pi, pg.depth, m.depth)
		}
		run := 1 << (m.depth - pg.depth)
		if lo := j &^ (run - 1); m.dir[lo] != pi || m.dir[lo+run-1] != pi {
			return fmt.Errorf("directory entry %d names page %d outside its aligned run of %d", j, pi, run)
		}
		refs[pi]++
	}
	n := 0
	for pi, pg := range m.pages {
		if refs[pi] != 1<<(m.depth-pg.depth) {
			return fmt.Errorf("page %d (local depth %d) has %d directory entries, want %d", pi, pg.depth, refs[pi], 1<<(m.depth-pg.depth))
		}
		used := 0
		for _, s := range pg.slots {
			if s == 0 {
				continue
			}
			used++
			k := int32(uint32(s>>32) - 1)
			if got := m.dir[ftlDirHash(k)>>(32-m.depth)]; got != int32(pi) {
				return fmt.Errorf("key %d sits in page %d; its directory entry names page %d", k, pi, got)
			}
			if v, ok := m.get(k); !ok || v != int32(uint32(s)) {
				return fmt.Errorf("key %d in page %d: get returns %d, %v; slot holds %d", k, pi, v, ok, int32(uint32(s)))
			}
		}
		if used != int(pg.used) || used > ftlSplitAt {
			return fmt.Errorf("page %d holds %d keys, counts %d (split at %d)", pi, used, pg.used, ftlSplitAt)
		}
		n += used
	}
	if n != m.n {
		return fmt.Errorf("pages hold %d keys, Len reports %d", n, m.n)
	}
	return nil
}

// ftlDirInverse is the multiplicative inverse of ftlDirHash's constant
// mod 2^32, found by Newton's iteration (each step doubles the correct
// low bits; an odd constant starts with three).
func ftlDirInverse() uint32 {
	c := ftlDirHash(1)
	inv := c
	for i := 0; i < 4; i++ {
		inv *= 2 - c*inv
	}
	return inv
}

// ftlFuzzKeys returns n keys of one family starting at arg: 0 small
// consecutive keys, 1 keys on both sides of a Table I device's
// LogicalSlices, 2 keys whose directory hashes share their top 12 bits
// and spread below them (every split of the first 12 leaves one side
// empty; the directory doubles past 12 bits), 3 keys spread over int32
// by a large odd stride.
func ftlFuzzKeys(family byte, arg uint16, n int, logical int32, inv uint32) []int32 {
	keys := make([]int32, 0, n)
	for i := 0; len(keys) < n; i++ {
		var k int32
		switch family % 4 {
		case 0:
			k = int32(arg) + int32(i)
		case 1:
			k = logical - 1024 + int32((int(arg)+i)%2048)
		case 2:
			h := uint32(0x5a5)<<20 | (uint32(arg)<<4+uint32(i))*0x9e3b5&0xfffff
			if k = int32(h * inv); k < 0 {
				continue // not a host slice
			}
		case 3:
			k = int32((uint32(arg) + uint32(i)) * 0x2545f491 & math.MaxInt32)
		}
		keys = append(keys, k)
	}
	return keys
}

// FuzzFTLMap drives the paged table and a Go map through the same
// interleaved sets and gets. Each 4-byte op is a code byte (low bit: set
// or get; next bit: one key or a run of 64·(1+n%32); bits 2–3: the key
// family of ftlFuzzKeys), a 16-bit key argument and a run length.
func FuzzFTLMap(f *testing.F) {
	f.Add([]byte{0x02, 0, 0, 31, 0x01, 0, 5, 0, 0x03, 0, 0, 31})                        // a sequential run, then gets
	f.Add([]byte{0x0a, 0, 0, 31, 0x0a, 0x10, 0, 31, 0x0b, 0, 0, 31, 0x0b, 0x10, 0, 31}) // clustered: deep splits
	f.Add([]byte{0x06, 0, 0, 31, 0x04, 0, 3, 0, 0x07, 0, 0, 31, 0x05, 0x07, 0xff, 0})   // around LogicalSlices
	f.Add([]byte{0x0e, 0x12, 0x34, 31, 0x0e, 0x12, 0x34, 31, 0x0f, 0x12, 0x30, 31})     // spread, then overwritten
	logical := int32(NewDevice(sim.NewEngine(), TableIGeometry(), MLC3DTiming(), 1).LogicalSlices())
	inv := ftlDirInverse()
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*32 {
			ops = ops[:4*32]
		}
		var m ftlMap
		ref := make(map[int32]int32)
		for step := 0; len(ops) >= 4; step++ {
			code, arg, n := ops[0], uint16(ops[1])<<8|uint16(ops[2]), 1
			if code&2 != 0 {
				n = 64 * (1 + int(ops[3]%32))
			}
			ops = ops[4:]
			for i, k := range ftlFuzzKeys(code>>2, arg, n, logical, inv) {
				if code&1 == 0 {
					v := int32(uint32(step)<<20^uint32(i)) & math.MaxInt32
					m.set(k, v)
					ref[k] = v
					continue
				}
				v, ok := m.get(k)
				if want, wok := ref[k]; v != want || ok != wok {
					t.Fatalf("step %d: get(%d) = %d, %v; reference %d, %v", step, k, v, ok, want, wok)
				}
			}
			if m.Len() != len(ref) {
				t.Fatalf("step %d: Len %d, reference %d", step, m.Len(), len(ref))
			}
		}
		if err := m.check(); err != nil {
			t.Fatal(err)
		}
		keys := m.keys()
		if len(keys) != len(ref) {
			t.Fatalf("keys lists %d, reference %d", len(keys), len(ref))
		}
		for _, k := range keys {
			if v, ok := m.get(k); !ok || v != ref[k] {
				t.Fatalf("key %d: %d, %v; reference %d", k, v, ok, ref[k])
			}
		}
	})
}

// TestFTLAllocationsRepeat feeds Table I devices in one process the
// same 200,000 seeded random writes: the FTL must make the same
// allocations, object for object and byte for byte. A Go map's growth
// follows its per-map random hash seed, so its counts can differ between
// such twins. Allocations outside the device can only add to a count
// (the race-enabled runtime adds 1 to 9 objects to about one feed in
// ten), so each twin counts the least of three devices. Not parallel: it
// reads the process's allocation counters.
func TestFTLAllocationsRepeat(t *testing.T) {
	feed := func() (objects, bytes uint64) {
		eng := sim.NewEngine()
		d := NewDevice(eng, TableIGeometry(), MLC3DTiming(), 1)
		r := rng.New(5)
		logical := d.LogicalSlices()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 200_000; i++ {
			d.Write(r.Int63n(logical))
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(d)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	twin := func() (objects, bytes uint64) {
		objects, bytes = feed()
		for trial := 1; trial < 3; trial++ {
			o, b := feed()
			objects, bytes = min(objects, o), min(bytes, b)
		}
		return objects, bytes
	}
	o1, b1 := twin()
	o2, b2 := twin()
	t.Logf("200,000 random writes: %d objects, %d B", o1, b1)
	if o1 != o2 || b1 != b2 {
		t.Fatalf("twin devices allocated %d objects, %d B and %d objects, %d B", o1, b1, o2, b2)
	}
}
