// Package pcie models the all-flash array's PCIe Gen3 fabric (paper Fig 2):
// a two-level tree of 96-lane/24-port switches with 61 device slots and 3
// host uplinks. Each device slot holds an M.2 carrier card with four M.2
// NVMe SSDs (Fig 3), so one host's Gen3 x16 uplink (16 GB/s) fans out to 64
// SSDs through 16 slots.
//
// The model charges two costs per traversal:
//
//   - a fixed per-switch-hop forwarding latency, calibrated so a read
//     through the fabric costs 5 µs more than against a directly attached
//     SSD (Section IV-A: 25 µs standalone → 30 µs through the switches);
//   - store-and-forward serialization plus link contention, using each
//     link's next-free time. At 4 KiB QD1 this is negligible, exactly as
//     the paper observes; sequential-read workloads saturate the uplink,
//     reproducing the Section III-B preliminary result.
package pcie

import (
	"fmt"

	"repro/internal/sim"
)

// Gen3BytesPerLanePerSec is the usable PCIe Gen3 payload bandwidth per lane
// (8 GT/s with 128b/130b encoding, minus protocol overhead ≈ 985 MB/s).
const Gen3BytesPerLanePerSec = 985_000_000

// Gen4BytesPerLanePerSec doubles the per-lane rate (16 GT/s), the
// signaling generation of the ULL-era fabric.
const Gen4BytesPerLanePerSec = 2 * Gen3BytesPerLanePerSec

// Link is a PCIe link with a lane count and a next-free time used for
// serialization/contention accounting.
type Link struct {
	Name     string
	Lanes    int
	perLane  int64 // bytes/sec per lane; 0 means Gen3
	nextFree sim.Time
	busy     sim.Duration // cumulative occupied time, for utilization stats
}

// Bandwidth reports the link's payload bandwidth in bytes/second.
func (l *Link) Bandwidth() float64 {
	perLane := l.perLane
	if perLane == 0 {
		perLane = Gen3BytesPerLanePerSec
	}
	return float64(l.Lanes) * float64(perLane)
}

// wireTime is the serialization time of n bytes on this link.
func (l *Link) wireTime(n int) sim.Duration {
	wire := sim.Duration(float64(n) / l.Bandwidth() * float64(sim.Second))
	if wire < 1 {
		wire = 1
	}
	return wire
}

// reserve books the link for a transfer of n bytes arriving at time at and
// returns (queue wait, wire time).
//
// Arrival times must be anchored near the current instant (see the Fabric
// traversal): if queue waits fed back into later stages' arrival times,
// reservations would anchor far in the future, the FIFO bookkeeping would
// lose the idle gaps before them, and two links could sustain each other's
// phantom backlog indefinitely.
func (l *Link) reserve(at sim.Time, n int) (wait, wire sim.Duration) {
	wire = l.wireTime(n)
	start := at
	if l.nextFree > start {
		start = l.nextFree
		wait = start.Sub(at)
	}
	l.nextFree = start.Add(wire)
	l.busy += wire
	return wait, wire
}

// BusyTime reports the cumulative time the link spent transferring.
func (l *Link) BusyTime() sim.Duration { return l.busy }

// Switch is one 96-lane/24-port fabric switch.
type Switch struct {
	Name  string
	Lanes int
	Ports int
}

// Slot is one physical PCIe slot of the array.
type Slot struct {
	Index  int
	Uplink int  // which of the 3 host uplinks the slot is statically wired to
	IsHost bool // true for the 3 uplink slots
}

// Topology describes the full array fabric: the static structure the BIOS
// enumerates.
type Topology struct {
	Switches []Switch
	Slots    []Slot
}

// ArrayTopology returns the paper's fabric: 7 switches, 64 slots total
// (61 for devices, 3 for uplinks), devices statically partitioned across
// the 3 uplinks.
func ArrayTopology() *Topology {
	t := &Topology{}
	for i := 0; i < 7; i++ {
		level := "upper"
		if i >= 3 {
			level = "lower"
		}
		t.Switches = append(t.Switches, Switch{
			Name:  fmt.Sprintf("psw%d-%s", i, level),
			Lanes: 96,
			Ports: 24,
		})
	}
	for i := 0; i < 64; i++ {
		s := Slot{Index: i}
		if i < 3 {
			s.IsHost = true
			s.Uplink = i
		} else {
			// 61 device slots statically spread across the 3 uplinks:
			// 21, 20, 20.
			s.Uplink = (i - 3) % 3
		}
		t.Slots = append(t.Slots, s)
	}
	return t
}

// DeviceSlots lists the non-host slots wired to the given uplink.
func (t *Topology) DeviceSlots(uplink int) []Slot {
	var out []Slot
	for _, s := range t.Slots {
		if !s.IsHost && s.Uplink == uplink {
			out = append(out, s)
		}
	}
	return out
}

// SSDsPerCarrier is how many M.2 SSDs one carrier card holds (Fig 3).
const SSDsPerCarrier = 4

// MaxSSDs reports the array's maximum SSD population (the paper's 244).
func (t *Topology) MaxSSDs() int {
	n := 0
	for _, s := range t.Slots {
		if !s.IsHost {
			n++
		}
	}
	return n * SSDsPerCarrier
}

// Fabric is the dynamic model of one host's view of the array: the x16
// uplink, the inter-switch links, and a x4 link per SSD.
type Fabric struct {
	eng *sim.Engine

	// HopLatency is the one-way forwarding latency of a single switch.
	// A request crosses two switch levels each way; 4 hops round trip.
	HopLatency sim.Duration

	Uplink      *Link   // host ↔ upper switch, x16
	InterSwitch []*Link // upper switch ↔ each lower switch, x16
	DevLinks    []*Link // lower switch ↔ SSD, x4 (M.2)

	lowerOf []int // SSD index → lower-switch index

	// DebugTrace, when set, observes every reservation (diagnostics).
	DebugTrace func(link string, at, start sim.Time, wire sim.Duration)
}

// lowerSwitches is the number of level-2 switches the SSD population is
// spread over (4 on the testbed's one-host share).
const lowerSwitches = 4

// Options configures a Fabric.
type Options struct {
	NumSSDs int
	// HopLatency per switch level; the default (1250 ns × 4 hops = 5 µs
	// round trip) matches the paper's 25 µs → 30 µs observation.
	HopLatency sim.Duration
	// BytesPerLanePerSec overrides every link's per-lane payload rate;
	// the default is Gen3BytesPerLanePerSec (the 2016 testbed). The
	// ULL-era fabric passes Gen4BytesPerLanePerSec.
	BytesPerLanePerSec int64
}

// NewFabric builds one host's fabric share.
func NewFabric(eng *sim.Engine, opt Options) *Fabric {
	if opt.NumSSDs <= 0 {
		panic("pcie: NumSSDs must be positive")
	}
	if opt.HopLatency == 0 {
		opt.HopLatency = 1250 * sim.Nanosecond
	}
	f := &Fabric{
		eng:        eng,
		HopLatency: opt.HopLatency,
		Uplink:     &Link{Name: "uplink", Lanes: 16, perLane: opt.BytesPerLanePerSec},
		lowerOf:    make([]int, opt.NumSSDs),
	}
	for i := 0; i < lowerSwitches; i++ {
		f.InterSwitch = append(f.InterSwitch, &Link{Name: fmt.Sprintf("isl%d", i), Lanes: 16,
			perLane: opt.BytesPerLanePerSec})
	}
	for i := 0; i < opt.NumSSDs; i++ {
		f.DevLinks = append(f.DevLinks, &Link{Name: fmt.Sprintf("dev%d", i), Lanes: 4,
			perLane: opt.BytesPerLanePerSec})
		f.lowerOf[i] = i * lowerSwitches / opt.NumSSDs
	}
	return f
}

// NumSSDs reports the SSD population behind this host's uplink.
func (f *Fabric) NumSSDs() int { return len(f.DevLinks) }

// Downstream models a host→SSD transfer of n bytes (command fetch or write
// payload) and returns the total delay including switch hops, wire times,
// and link contention: uplink, then the inter-switch link, then the device
// link.
func (f *Fabric) Downstream(ssd, n int) sim.Duration {
	f.check(ssd)
	return f.traverse([]*Link{f.Uplink, f.InterSwitch[f.lowerOf[ssd]], f.DevLinks[ssd]}, n)
}

// Upstream models an SSD→host transfer of n bytes (read payload or
// completion) and returns the total delay. Stages run in the opposite
// order: device link, inter-switch link, uplink.
func (f *Fabric) Upstream(ssd, n int) sim.Duration {
	f.check(ssd)
	return f.traverse([]*Link{f.DevLinks[ssd], f.InterSwitch[f.lowerOf[ssd]], f.Uplink}, n)
}

// traverse books the path's links in order. Each stage's arrival time is
// offset by the preceding stages' wire and hop times only — never their
// queue waits — so reservations stay anchored near the current instant
// and the per-link FIFO accounting remains work-conserving (see
// Link.reserve). The returned delay is the pipeline view: all wires and
// hops plus the worst single stage's queue wait — stages of one transfer
// wait concurrently, so the bottleneck link governs.
func (f *Fabric) traverse(path []*Link, n int) sim.Duration {
	now := f.eng.Now()
	var offset, delay, worstWait sim.Duration
	for i, l := range path {
		if i > 0 {
			offset += f.HopLatency
			delay += f.HopLatency
		}
		wait, wire := l.reserve(now.Add(offset), n)
		if f.DebugTrace != nil {
			f.DebugTrace(l.Name, now.Add(offset), now.Add(offset+wait), wire)
		}
		if wait > worstWait {
			worstWait = wait
		}
		offset += wire
		delay += wire
	}
	return delay + worstWait
}

func (f *Fabric) check(ssd int) {
	if ssd < 0 || ssd >= len(f.DevLinks) {
		panic(fmt.Sprintf("pcie: ssd %d out of range", ssd))
	}
}

// RoundTripOverhead reports the fixed fabric latency added to one I/O
// (request down + data/completion up), excluding serialization: the
// paper's "+5 µs through the switches".
func (f *Fabric) RoundTripOverhead() sim.Duration {
	return 4 * f.HopLatency
}

// UplinkUtilization reports the fraction of elapsed time the uplink was
// transferring, for the sequential-saturation experiment.
func (f *Fabric) UplinkUtilization() float64 {
	if f.eng.Now() == 0 {
		return 0
	}
	return float64(f.Uplink.BusyTime()) / float64(f.eng.Now())
}
