package topology

import "testing"

func TestXeonLayout(t *testing.T) {
	h := XeonE52690v2()
	if h.NumLogical() != 40 {
		t.Fatalf("NumLogical = %d, want 40", h.NumLogical())
	}
	if h.AFASocket != 1 {
		t.Fatalf("AFASocket = %d, want 1 (the paper's CPU2)", h.AFASocket)
	}
}

func TestSiblingsAreMutual(t *testing.T) {
	h := XeonE52690v2()
	for id := 0; id < h.NumLogical(); id++ {
		c := h.CPU(id)
		sib := h.CPU(c.Sibling)
		if sib.Sibling != id {
			t.Fatalf("sibling of %d is %d but its sibling is %d", id, c.Sibling, sib.Sibling)
		}
		if sib.PhysCore != c.PhysCore {
			t.Fatalf("siblings %d/%d on different physical cores", id, c.Sibling)
		}
		if sib.Socket != c.Socket {
			t.Fatalf("siblings %d/%d on different sockets", id, c.Sibling)
		}
	}
	if h.CPU(4).Sibling != 24 {
		t.Fatalf("cpu(4) sibling = %d, want 24", h.CPU(4).Sibling)
	}
}

func TestSocketAssignment(t *testing.T) {
	h := XeonE52690v2()
	if h.CPU(0).Socket != 0 || h.CPU(9).Socket != 0 {
		t.Fatal("cpu 0-9 must be socket 0")
	}
	if h.CPU(10).Socket != 1 || h.CPU(19).Socket != 1 {
		t.Fatal("cpu 10-19 must be socket 1")
	}
	if h.CPU(30).Socket != 1 {
		t.Fatal("cpu 30 (sibling of 10) must be socket 1")
	}
}

func TestReservedCPUsMatchPaper(t *testing.T) {
	h := XeonE52690v2()
	want := map[int]bool{0: true, 1: true, 2: true, 3: true, 20: true, 21: true, 22: true, 23: true}
	for id := 0; id < h.NumLogical(); id++ {
		if h.CPU(id).Reserved != want[id] {
			t.Fatalf("cpu(%d) reserved = %v; paper reserves 0-3 and 20-23", id, h.CPU(id).Reserved)
		}
	}
	if len(h.WorkloadCPUs()) != 32 {
		t.Fatalf("workload CPUs = %d, want 32", len(h.WorkloadCPUs()))
	}
}

func TestDefaultGeometryMatchesFig5(t *testing.T) {
	h := XeonE52690v2()
	g := DefaultGeometry(h, 64)
	// Paper: nvme(0) and nvme(32) both on cpu(4); nvme(31) and nvme(63) on cpu(39).
	if g.ThreadCPU[0] != 4 || g.ThreadCPU[32] != 4 {
		t.Fatalf("nvme0→cpu%d nvme32→cpu%d, want both cpu4", g.ThreadCPU[0], g.ThreadCPU[32])
	}
	if g.ThreadCPU[31] != 39 || g.ThreadCPU[63] != 39 {
		t.Fatalf("nvme31→cpu%d nvme63→cpu%d, want both cpu39", g.ThreadCPU[31], g.ThreadCPU[63])
	}
	if g.ThreadCPU[15] != 19 {
		t.Fatalf("nvme15→cpu%d, want cpu19", g.ThreadCPU[15])
	}
	if g.ThreadCPU[16] != 24 {
		t.Fatalf("nvme16→cpu%d, want cpu24", g.ThreadCPU[16])
	}
	if len(g.ActiveSSDs()) != 64 {
		t.Fatalf("active = %d", len(g.ActiveSSDs()))
	}
	// No FIO thread may land on a reserved CPU.
	for n, cpu := range g.ThreadCPU {
		if h.CPU(cpu).Reserved {
			t.Fatalf("nvme(%d) pinned to reserved cpu(%d)", n, cpu)
		}
	}
}

func TestDefaultGeometryTwoThreadsPerLogical(t *testing.T) {
	g := DefaultGeometry(XeonE52690v2(), 64)
	perCPU := map[int]int{}
	for _, cpu := range g.ThreadCPU {
		perCPU[cpu]++
	}
	if len(perCPU) != 32 {
		t.Fatalf("uses %d CPUs, want 32", len(perCPU))
	}
	for cpu, n := range perCPU {
		if n != 2 {
			t.Fatalf("cpu(%d) hosts %d threads, want 2", cpu, n)
		}
	}
}

func TestHalfGeometryRunsAreDisjointAndCover(t *testing.T) {
	h := XeonE52690v2()
	seen := map[int]bool{}
	for run := 0; run < 2; run++ {
		g := HalfGeometry(h, 64, run)
		if len(g.ActiveSSDs()) != 32 {
			t.Fatalf("run %d active = %d, want 32", run, len(g.ActiveSSDs()))
		}
		perCPU := map[int]int{}
		for _, ssd := range g.ActiveSSDs() {
			if seen[ssd] {
				t.Fatalf("ssd %d appears in two runs", ssd)
			}
			seen[ssd] = true
			perCPU[g.ThreadCPU[ssd]]++
		}
		for cpu, n := range perCPU {
			if n != 1 {
				t.Fatalf("run %d: cpu(%d) hosts %d threads, want 1", run, cpu, n)
			}
		}
	}
	if len(seen) != 64 {
		t.Fatalf("two runs cover %d SSDs, want 64", len(seen))
	}
}

func TestQuarterGeometryOneSSDPerPhysCore(t *testing.T) {
	h := XeonE52690v2()
	seen := map[int]bool{}
	for run := 0; run < 4; run++ {
		g := QuarterGeometry(h, 64, run)
		if len(g.ActiveSSDs()) != 16 {
			t.Fatalf("run %d active = %d, want 16", run, len(g.ActiveSSDs()))
		}
		physUsed := map[int]int{}
		for _, ssd := range g.ActiveSSDs() {
			seen[ssd] = true
			cpu := g.ThreadCPU[ssd]
			physUsed[h.CPU(cpu).PhysCore]++
			// Must be the first HT thread (IDs < 20).
			if cpu >= 20 {
				t.Fatalf("run %d: ssd %d on HT sibling cpu(%d)", run, ssd, cpu)
			}
		}
		for phys, n := range physUsed {
			if n != 1 {
				t.Fatalf("run %d: phys core %d hosts %d SSDs, want 1", run, phys, n)
			}
		}
	}
	if len(seen) != 64 {
		t.Fatalf("four runs cover %d SSDs, want 64", len(seen))
	}
}

func TestSoloGeometry(t *testing.T) {
	h := XeonE52690v2()
	seen := map[int]bool{}
	for run := 0; run < 64; run++ {
		g := SoloGeometry(h, 64, run)
		if len(g.ActiveSSDs()) != 1 {
			t.Fatalf("run %d active = %d, want 1", run, len(g.ActiveSSDs()))
		}
		ssd := g.ActiveSSDs()[0]
		if ssd != run {
			t.Fatalf("run %d exercises ssd %d", run, ssd)
		}
		seen[ssd] = true
		if h.CPU(g.ThreadCPU[ssd]).Reserved {
			t.Fatalf("solo thread on reserved CPU")
		}
	}
	if len(seen) != 64 {
		t.Fatalf("64 runs cover %d SSDs", len(seen))
	}
}
