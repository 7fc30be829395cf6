package fio

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/nvme"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// goldenMuxHash is the fingerprint of TestMuxFingerprint's run. It was
// recorded while the tenant table was still one slice grown by append
// and every tenant stream was derived through a fresh labelled parent,
// so it pins that the paged table and in-place streams moved nothing.
const goldenMuxHash = 0x461f79208c40173c

// fingerprintTenants spans the first three tenant-table pages.
const fingerprintTenants = 640

// TestMuxFingerprint hashes the whole MuxResult — every per-class
// counter, ladder and phase decomposition and the all-classes totals —
// of a seeded rig with 640 tenants (crossing table pages at 256 and
// 512), all three arrival kinds, all three read/write patterns, two
// block sizes, and one class under each admission policy, on four
// SSDs one of which returns transient errors.
func TestMuxFingerprint(t *testing.T) {
	r := newRig(t, 4, 4, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)
	r.k.SSDs[2].SetTransientErrorRate(0.02)
	cfg := MuxConfig{Name: "golden", Runtime: 60 * sim.Millisecond, Seed: 2018, Phases: true}
	cfg.Class[kernel.ClassLatency] = ClassConfig{Rate: 20_000, Policy: AdmitShed}
	cfg.Class[kernel.ClassThroughput] = ClassConfig{Rate: 20_000, Policy: AdmitQueue, QueueLimit: 64}
	cfg.Class[kernel.ClassBackground] = ClassConfig{Rate: 15_000, Policy: AdmitThrottle}
	m := NewMultiplexer(r.eng, r.k, cfg)
	kinds := []ArrivalKind{ArrivalPoisson, ArrivalMMPP, ArrivalDiurnal}
	rws := []RW{RandRead, RandWrite, SeqRead, ""}
	for i := 0; i < fingerprintTenants; i++ {
		bs := 4096
		if i%5 == 0 {
			bs = 8192
		}
		m.AddTenant(TenantSpec{
			SSD:     i % 4,
			RW:      rws[i%len(rws)],
			BS:      bs,
			Class:   kernel.QoSClass((i / 3) % kernel.NumQoSClasses),
			Arrival: ArrivalSpec{Kind: kinds[i%len(kinds)], Rate: 100 + float64(i%7)*20},
		})
	}
	res := m.Run()

	h := fnv.New64a()
	put := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	putF := func(f float64) { put(int64(math.Float64bits(f))) }
	putLadder := func(l stats.Ladder) {
		putF(l.Avg)
		put(l.P[:]...)
		put(l.Max, l.N)
	}
	h.Write([]byte(res.Name))
	put(int64(res.Tenants), int64(res.Runtime))
	for c := range res.Class {
		cr := &res.Class[c]
		put(cr.Offered, cr.Admitted, cr.Shed, cr.Queued, cr.QueueShed, cr.Throttled, cr.Completed, cr.Errors)
		putLadder(cr.Ladder)
		put(cr.Phases.N())
		for p := Phase(0); p < numPhases; p++ {
			putF(cr.Phases.Mean(p))
			putF(cr.Phases.Std(p))
		}
	}
	putLadder(res.Total)
	put(res.Offered, res.Admitted, res.Completed, res.Errors)

	lat, thr, bg := res.Class[kernel.ClassLatency], res.Class[kernel.ClassThroughput], res.Class[kernel.ClassBackground]
	if res.Tenants != fingerprintTenants || lat.Shed == 0 || thr.Queued == 0 || thr.QueueShed == 0 ||
		bg.Throttled == 0 || res.Errors == 0 || res.Completed == 0 {
		t.Fatalf("the rig no longer covers every path: %d tenants, %d shed, %d queued, %d queue-shed, %d throttled, %d errors, %d completed",
			res.Tenants, lat.Shed, thr.Queued, thr.QueueShed, bg.Throttled, res.Errors, res.Completed)
	}
	if got := h.Sum64(); got != goldenMuxHash {
		t.Fatalf("mux fingerprint %#x, want %#x", got, uint64(goldenMuxHash))
	}
}

// goldenTenantDraws are the first three draws of tenant i's stream in a
// mux named "ident" seeded 2018, as the original per-tenant derivation,
// a fresh *rng.NewLabeled(2018, "fio-mux/ident") and its
// DeriveIndexed(i), produced them.
var goldenTenantDraws = []struct {
	i     int32
	draws [3]uint64
}{
	{0, [3]uint64{0x82470fdda3f54d89, 0x220a5f7df1226508, 0x637059f02c2b6d68}},
	{255, [3]uint64{0x1d1b1cfe4aed367d, 0x7a95bc83c2f9b3e8, 0xf8beb5816439be15}},
	{256, [3]uint64{0xb3dec43c7d64dd58, 0x681a644d8df9a5af, 0x5d1f883dc860f5d0}},
	{9_999, [3]uint64{0x168b3463e78945cb, 0xf4fb968362662aa0, 0x1e4c79b36ba82158}},
}

// TestMuxTenantStreamIdentity: each tenant's stream is exactly the
// labelled base stream's indexed child it has always been — on both
// sides of the table's page boundary at 256 and deep into a 10k table.
func TestMuxTenantStreamIdentity(t *testing.T) {
	r := newRig(t, 2, 1, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)
	m := NewMultiplexer(r.eng, r.k, MuxConfig{Name: "ident", Seed: 2018})
	addTenants(m, 10_000, 1, kernel.ClassThroughput, ArrivalSpec{Kind: ArrivalPoisson, Rate: 10})
	base := rng.NewLabeled(2018, "fio-mux/ident")
	for _, g := range goldenTenantDraws {
		s := m.tenant(g.i).rnd
		ref := base.DeriveIndexed(uint64(g.i))
		var got, derived [3]uint64
		for d := range got {
			got[d], derived[d] = s.Uint64(), ref.Uint64()
		}
		if got != g.draws || derived != g.draws {
			t.Errorf("tenant %d draws %#x, its derivation %#x, want %#x", g.i, got, derived, g.draws)
		}
	}
}
