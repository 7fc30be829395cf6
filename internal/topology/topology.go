// Package topology models the host CPU geometry of the paper's testbed and
// the CPU↔SSD assignment of Fig 5.
//
// The host is a dual-socket Intel Xeon E5-2690 v2: 2 sockets × 10 physical
// cores × 2 hyper-threads = 40 logical CPUs. Logical CPUs 0–19 are the
// first hardware thread of each physical core (socket 0 owns 0–9, socket 1
// owns 10–19) and logical CPUs 20–39 are their hyper-thread siblings, which
// matches how Linux enumerated the testbed: the paper reserves cpu(0)–cpu(3)
// and cpu(20)–cpu(23) — four physical cores and their siblings — for
// "other system tasks" and dedicates the remaining 32 logical CPUs to FIO.
package topology

// CPUInfo describes one logical CPU.
type CPUInfo struct {
	ID       int
	Socket   int
	PhysCore int  // global physical core index, 0..Sockets*CoresPerSocket-1
	Sibling  int  // logical ID of the hyper-thread sibling
	Reserved bool // reserved for background system tasks (not FIO)
}

// Host describes the logical-CPU layout of a machine.
type Host struct {
	Sockets        int
	CoresPerSocket int
	ThreadsPerCore int
	// AFASocket is the socket wired to the AFA's PCIe uplink (the paper's
	// "CPU2", i.e. the second socket).
	AFASocket int
	cpus      []CPUInfo
}

// XeonE52690v2 returns the paper's host: 2 sockets × 10 cores × 2 HT,
// with cpu(0..3) and cpu(20..23) reserved, and socket 1 wired to the AFA.
func XeonE52690v2() *Host {
	h := &Host{Sockets: 2, CoresPerSocket: 10, ThreadsPerCore: 2, AFASocket: 1}
	n := h.NumLogical()
	half := n / 2
	h.cpus = make([]CPUInfo, n)
	for id := 0; id < n; id++ {
		phys := id % half
		sib := id + half
		if id >= half {
			sib = id - half
		}
		h.cpus[id] = CPUInfo{
			ID:       id,
			Socket:   phys / h.CoresPerSocket,
			PhysCore: phys,
			Sibling:  sib,
			Reserved: (id%half < 4), // cpu 0-3 and 20-23
		}
	}
	return h
}

// NumLogical reports the number of logical CPUs.
func (h *Host) NumLogical() int { return h.Sockets * h.CoresPerSocket * h.ThreadsPerCore }

// CPU returns the description of logical CPU id.
func (h *Host) CPU(id int) CPUInfo {
	return h.cpus[id]
}

// WorkloadCPUs lists the logical CPUs available for FIO threads in the
// paper's enumeration order: cpu(4)..cpu(19), then cpu(24)..cpu(39).
func (h *Host) WorkloadCPUs() []int {
	var out []int
	for _, c := range h.cpus {
		if !c.Reserved {
			out = append(out, c.ID)
		}
	}
	return out
}

// Geometry is a CPU↔SSD assignment: which logical CPU each SSD's FIO
// thread is pinned to, per Fig 5 and the Table II variants.
type Geometry struct {
	// ThreadCPU[n] is the logical CPU that runs the FIO thread of nvme(n).
	// A value of -1 means the SSD is not exercised in this geometry/run.
	ThreadCPU []int
}

// ActiveSSDs lists the SSD indices with a thread assigned.
func (g *Geometry) ActiveSSDs() []int {
	var out []int
	for i, c := range g.ThreadCPU {
		if c >= 0 {
			out = append(out, i)
		}
	}
	return out
}

// DefaultGeometry is Fig 5 / Table II row (a): 64 SSDs, two FIO threads per
// logical CPU, 4 SSDs per physical core. nvme(n) and nvme(n+32) share
// cpu(4+n) for n in 0..15 and cpu(24+n-16) for n in 16..31.
func DefaultGeometry(h *Host, numSSDs int) *Geometry {
	cpus := h.WorkloadCPUs()
	g := &Geometry{ThreadCPU: make([]int, numSSDs)}
	for n := 0; n < numSSDs; n++ {
		g.ThreadCPU[n] = cpus[n%len(cpus)]
	}
	return g
}

// HalfGeometry is Table II row (b): one FIO thread per logical CPU,
// 2 SSDs per physical core; covering all 64 SSDs takes 2 runs over
// disjoint SSD sets. run is 0-based.
func HalfGeometry(h *Host, numSSDs, run int) *Geometry {
	cpus := h.WorkloadCPUs()
	g := &Geometry{ThreadCPU: make([]int, numSSDs)}
	for n := range g.ThreadCPU {
		g.ThreadCPU[n] = -1
	}
	for i, cpu := range cpus {
		n := run*len(cpus) + i
		if n < numSSDs {
			g.ThreadCPU[n] = cpu
		}
	}
	return g
}

// QuarterGeometry is Table II row (c): one FIO thread per logical CPU but
// only the first hardware thread of each workload physical core is used, so
// 1 SSD per physical core; 4 runs cover 64 SSDs. run is 0-based.
func QuarterGeometry(h *Host, numSSDs, run int) *Geometry {
	var cpus []int
	for _, id := range h.WorkloadCPUs() {
		if h.CPU(id).Sibling > id { // first HT thread only (4..19)
			cpus = append(cpus, id)
		}
	}
	g := &Geometry{ThreadCPU: make([]int, numSSDs)}
	for n := range g.ThreadCPU {
		g.ThreadCPU[n] = -1
	}
	for i, cpu := range cpus {
		n := run*len(cpus) + i
		if n < numSSDs {
			g.ThreadCPU[n] = cpu
		}
	}
	return g
}

// SoloGeometry is Table II row (d): a single FIO thread in the entire
// system; 64 runs cover 64 SSDs. run selects the SSD.
func SoloGeometry(h *Host, numSSDs, run int) *Geometry {
	cpus := h.WorkloadCPUs()
	g := &Geometry{ThreadCPU: make([]int, numSSDs)}
	for n := range g.ThreadCPU {
		g.ThreadCPU[n] = -1
	}
	if run < numSSDs {
		g.ThreadCPU[run] = cpus[run%len(cpus)]
	}
	return g
}
