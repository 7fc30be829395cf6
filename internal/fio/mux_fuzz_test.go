package fio

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/nvme"
	"repro/internal/sim"
)

// FuzzMux runs small open-loop rigs across the config space that
// passes validation: 1–700 tenants (so up to three tenant-table pages),
// every arrival kind alone or mixed, every read/write pattern, and each
// class under any admission policy at any rate (0 = no admission
// control) and queue limit (0 = the default). For each it checks that:
//   - nothing panics, the run drains, and Tenants() is the count added;
//   - per class, admitted + shed + queue-shed ≤ offered (a throttled
//     arrival still deferred at the deadline is in none of them) and
//     completed + errors ≤ admitted;
//   - the totals are the sums over classes.
//
// The committed corpus under testdata/fuzz makes plain `go test` replay
// it; the nightly workflow fuzzes it for new inputs.
func FuzzMux(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, tenants uint16, kinds, policies, rws, queueLimit uint8,
		latRate, thrRate, bgRate, tenantRate uint16) {
		r := newRig(t, 2, 2, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)
		r.k.SSDs[1].SetTransientErrorRate(0.01)
		cfg := MuxConfig{Name: "fuzz", Runtime: 20 * sim.Millisecond, Seed: seed}
		for c, rate := range [kernel.NumQoSClasses]uint16{latRate, thrRate, bgRate} {
			cfg.Class[c] = ClassConfig{
				Rate:       10 * float64(rate),
				Policy:     AdmitPolicy(policies >> (2 * c) % 3),
				QueueLimit: int(queueLimit),
			}
		}
		m := NewMultiplexer(r.eng, r.k, cfg)
		n := 1 + int(tenants)%700
		patterns := [...]RW{"", RandRead, RandWrite, SeqRead}
		for i := 0; i < n; i++ {
			kind := ArrivalKind(kinds % 3)
			if kinds&4 != 0 {
				kind = ArrivalKind((int(kinds) + i) % 3)
			}
			m.AddTenant(TenantSpec{
				SSD:     i % 2,
				RW:      patterns[(int(rws)+i)%len(patterns)],
				BS:      4096 << ((int(rws>>4) + i) % 3),
				Class:   kernel.QoSClass(i % kernel.NumQoSClasses),
				Arrival: ArrivalSpec{Kind: kind, Rate: 10 + float64(tenantRate%1000)},
			})
		}
		if m.Tenants() != n {
			t.Fatalf("Tenants() = %d after %d AddTenant calls", m.Tenants(), n)
		}
		res := m.Run()
		if res.Tenants != n {
			t.Fatalf("result counts %d tenants, want %d", res.Tenants, n)
		}
		var offered, admitted, completed, errors int64
		for c := range res.Class {
			cr := &res.Class[c]
			if cr.Admitted+cr.Shed+cr.QueueShed > cr.Offered {
				t.Errorf("class %d: admitted %d + shed %d + queue-shed %d > offered %d",
					c, cr.Admitted, cr.Shed, cr.QueueShed, cr.Offered)
			}
			if cr.Completed+cr.Errors > cr.Admitted {
				t.Errorf("class %d: completed %d + errors %d > admitted %d",
					c, cr.Completed, cr.Errors, cr.Admitted)
			}
			offered += cr.Offered
			admitted += cr.Admitted
			completed += cr.Completed
			errors += cr.Errors
		}
		if offered != res.Offered || admitted != res.Admitted || completed != res.Completed || errors != res.Errors {
			t.Errorf("totals %d/%d/%d/%d offered/admitted/completed/errors, classes sum to %d/%d/%d/%d",
				res.Offered, res.Admitted, res.Completed, res.Errors, offered, admitted, completed, errors)
		}
	})
}
