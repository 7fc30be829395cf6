package nand

// ftlMap is the FTL's forward map, host slice → physical slice
// (block*SlicesPerBlock + slice): an extendible hash table of fixed
// 4 KiB pages of ftlPageSlots slots. The top bits of a key's directory
// hash pick its page; inside the page it probes linearly from a second,
// independent hash. A page that reaches ftlSplitAt keys splits in two,
// so growth allocates one page per split and never copies one; only the
// directory (4 B per entry) and the page list (16 B per page) grow by
// doubling. Which pages exist depends only on the keys written, so
// allocation repeats exactly from run to run, unlike a Go map's, whose
// growth follows the runtime's random hash seed.
//
// Keys are non-negative (host slices below LogicalSlices) and values are
// non-negative. There is no delete: the FTL never unmaps a slice, and
// Format drops the whole table. The zero value is an empty table that
// allocates nothing until its first set.
type ftlMap struct {
	dir   []int32 // page index for each depth-bit prefix of ftlDirHash
	pages []ftlPage
	depth uint8 // global depth: len(dir) == 1<<depth
	n     int
}

// ftlPage is one 4 KiB page and its bookkeeping.
type ftlPage struct {
	// Each slot packs (key+1)<<32 | value; 0 marks an empty slot.
	slots *[ftlPageSlots]uint64
	used  int32 // occupied slots, at most ftlSplitAt
	depth uint8 // local depth: every key here shares this many top hash bits
}

const (
	ftlPageBits  = 9
	ftlPageSlots = 1 << ftlPageBits // 512 uint64s: 4 KiB
	// ftlSplitAt is 7/8 of a page: a full page splits before taking
	// another new key, which keeps every probe run short and every page
	// holding at least one empty slot.
	ftlSplitAt = ftlPageSlots * 7 / 8
	ftlKeyMask = 0xffffffff_00000000 // the key half of a slot
)

// ftlDirHash is the directory hash (Fibonacci hashing); its top bits
// index the directory.
func ftlDirHash(k int32) uint32 { return uint32(k) * 0x9E3779B1 }

// ftlSlot is where k's probe starts inside its page: the top bits of a
// multiplicative hash independent of ftlDirHash, whose top bits every key
// in a page shares.
func ftlSlot(k int32) uint32 { return uint32(k) * 0x85EBCA77 >> (32 - ftlPageBits) }

// ftlTag is k's half of a slot.
func ftlTag(k int32) uint64 { return uint64(uint32(k)+1) << 32 }

// Len reports how many keys are mapped.
func (m *ftlMap) Len() int { return m.n }

// get returns k's value, if k is mapped.
func (m *ftlMap) get(k int32) (int32, bool) {
	if m.dir == nil {
		return 0, false
	}
	p := m.pages[m.dir[ftlDirHash(k)>>(32-m.depth)]].slots
	tag := ftlTag(k)
	for i := ftlSlot(k); ; i = (i + 1) % ftlPageSlots {
		s := p[i]
		if s&ftlKeyMask == tag {
			return int32(uint32(s)), true
		}
		if s == 0 {
			return 0, false
		}
	}
}

// set maps k to v. The first set allocates the first page.
func (m *ftlMap) set(k, v int32) {
	if m.dir == nil {
		m.dir = make([]int32, 1)
		m.addPage(0)
	}
	tag := ftlTag(k)
	for {
		pi := m.dir[ftlDirHash(k)>>(32-m.depth)]
		pg := &m.pages[pi]
		i := ftlSlot(k)
		for pg.slots[i] != 0 && pg.slots[i]&ftlKeyMask != tag {
			i = (i + 1) % ftlPageSlots
		}
		if pg.slots[i] == 0 {
			if pg.used == ftlSplitAt {
				m.split(pi)
				continue
			}
			pg.used++
			m.n++
		}
		pg.slots[i] = tag | uint64(uint32(v))
		return
	}
}

// addPage appends an empty page of local depth depth and returns its
// index.
func (m *ftlMap) addPage(depth uint8) int32 {
	m.pages = append(m.pages, ftlPage{
		slots: new([ftlPageSlots]uint64), //afalint:allow hotalloc -- one 4 KiB page per split, hundreds of inserts apart
		depth: depth,
	})
	return int32(len(m.pages) - 1)
}

// split divides page pi by the next bit of ftlDirHash: keys with the bit
// set move to a new page, the rest stay, and both pages gain a bit of
// local depth. The directory doubles first if pi already uses all of its
// bits. A split can leave every key on one side; set then splits again.
func (m *ftlMap) split(pi int32) {
	if m.pages[pi].depth == m.depth {
		dir := make([]int32, 2*len(m.dir))
		for j, p := range m.dir {
			dir[2*j], dir[2*j+1] = p, p
		}
		m.dir = dir
		m.depth++
	}
	depth := m.pages[pi].depth + 1
	buf := *m.pages[pi].slots // the re-hash buffer, on the stack
	*m.pages[pi].slots = [ftlPageSlots]uint64{}
	m.pages[pi].used, m.pages[pi].depth = 0, depth
	ni := m.addPage(depth)
	for j, p := range m.dir {
		if p == pi && j>>(m.depth-depth)&1 == 1 {
			m.dir[j] = ni
		}
	}
	for _, s := range buf {
		if s == 0 {
			continue
		}
		k := int32(uint32(s>>32) - 1)
		pg := &m.pages[pi]
		if ftlDirHash(k)>>(32-depth)&1 == 1 {
			pg = &m.pages[ni]
		}
		i := ftlSlot(k)
		for pg.slots[i] != 0 {
			i = (i + 1) % ftlPageSlots
		}
		pg.slots[i] = s
		pg.used++
	}
}
