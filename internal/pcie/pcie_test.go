package pcie

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestUplinkBandwidthIs16GBps(t *testing.T) {
	f := NewFabric(sim.NewEngine(), Options{NumSSDs: 64})
	bw := f.Uplink.Bandwidth()
	if bw < 15e9 || bw > 16.5e9 {
		t.Fatalf("uplink bandwidth = %.2f GB/s, want ≈16", bw/1e9)
	}
}

func TestRoundTripOverheadIs5us(t *testing.T) {
	f := NewFabric(sim.NewEngine(), Options{NumSSDs: 64})
	if got := f.RoundTripOverhead(); got != 5*sim.Microsecond {
		t.Fatalf("RoundTripOverhead = %v, want 5µs", got)
	}
}

func TestSmallTransferDelayDominatedByHops(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, Options{NumSSDs: 64})
	d := f.Upstream(0, 4096)
	// 2 hops (2.5µs) + 4KiB over x4 (~1.04µs) + x16 links (~0.26µs each).
	if d < 2500*sim.Nanosecond || d > 5*sim.Microsecond {
		t.Fatalf("4KiB upstream delay = %v, want ≈3-4µs", d)
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, Options{NumSSDs: 4})
	const n = 1 << 20 // 1 MiB
	d1 := f.Upstream(0, n)
	d2 := f.Upstream(0, n) // same instant, same device link: must queue
	if d2 <= d1 {
		t.Fatalf("second transfer (%v) not delayed behind first (%v)", d2, d1)
	}
	// In a store-and-forward pipeline the second transfer trails the first
	// by one wire time of the slowest shared stage (the x4 device link).
	devWire := sim.Duration(float64(n) / f.DevLinks[0].Bandwidth() * float64(sim.Second))
	if gap := d2 - d1; gap < devWire*9/10 {
		t.Fatalf("second transfer trails by %v, want ≈ device wire time %v", gap, devWire)
	}
}

func TestDifferentDevicesShareOnlyUplink(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, Options{NumSSDs: 64})
	const n = 1 << 20
	d1 := f.Upstream(0, n)
	d2 := f.Upstream(63, n) // different dev link, different lower switch
	// d2 queues only behind the shared x16 uplink transfer, which is 4x
	// faster than the x4 device link, so d2 ≈ d1 + uplink wire time.
	uplinkWire := sim.Duration(float64(n) / f.Uplink.Bandwidth() * float64(sim.Second))
	if d2 > d1+2*uplinkWire {
		t.Fatalf("independent device transfer over-delayed: d1=%v d2=%v", d1, d2)
	}
}

func TestUplinkSaturation(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, Options{NumSSDs: 64})
	// Blast 128 KiB reads from all SSDs for a while; uplink must be the
	// bottleneck (Section III-B: sequential reads saturate PCIe).
	const chunk = 128 << 10
	var last sim.Duration
	for i := 0; i < 64*20; i++ {
		last = f.Upstream(i%64, chunk)
	}
	total := float64(64*20*chunk) / last.Seconds()
	if total > f.Uplink.Bandwidth()*1.05 {
		t.Fatalf("aggregate throughput %.2f GB/s exceeds uplink %.2f GB/s",
			total/1e9, f.Uplink.Bandwidth()/1e9)
	}
	if total < f.Uplink.Bandwidth()*0.8 {
		t.Fatalf("aggregate throughput %.2f GB/s far below uplink capacity", total/1e9)
	}
}

func TestUplinkUtilization(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, Options{NumSSDs: 4})
	if f.UplinkUtilization() != 0 {
		t.Fatal("utilization nonzero before any transfer")
	}
	f.Upstream(0, 1<<20)
	eng.RunUntil(sim.Time(10 * sim.Millisecond))
	u := f.UplinkUtilization()
	want := (float64(1<<20) / f.Uplink.Bandwidth()) / 0.010
	if math.Abs(u-want)/want > 0.05 {
		t.Fatalf("utilization = %v, want ≈%v", u, want)
	}
}

func TestTransferPanicsOnBadSSD(t *testing.T) {
	f := NewFabric(sim.NewEngine(), Options{NumSSDs: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range ssd did not panic")
		}
	}()
	f.Upstream(4, 100)
}

func TestZeroSSDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NumSSDs=0 did not panic")
		}
	}()
	NewFabric(sim.NewEngine(), Options{})
}

func TestMinimumWireTime(t *testing.T) {
	f := NewFabric(sim.NewEngine(), Options{NumSSDs: 1})
	// Even a zero-byte "transfer" (e.g. a doorbell) takes nonzero time.
	if d := f.Downstream(0, 0); d <= 0 {
		t.Fatalf("zero-byte transfer delay = %v", d)
	}
}
