package fio

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/nvme"
	"repro/internal/sim"
)

// addTenants registers n tenants spread across the rig's SSDs with the
// given per-tenant arrival spec and class.
func addTenants(m *Multiplexer, n, nssd int, class kernel.QoSClass, arr ArrivalSpec) {
	for i := 0; i < n; i++ {
		m.AddTenant(TenantSpec{
			SSD:     i % nssd,
			RW:      RandRead,
			Class:   class,
			Arrival: arr,
		})
	}
}

// TestMuxPoissonRate: open-loop Poisson tenants at a modest aggregate
// rate should complete roughly rate×runtime I/Os — the load is offered,
// not negotiated.
func TestMuxPoissonRate(t *testing.T) {
	const nssd = 4
	r := newRig(t, 4, nssd, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)
	m := NewMultiplexer(r.eng, r.k, MuxConfig{
		Runtime: 200 * sim.Millisecond,
		Seed:    42,
	})
	const tenants, perTenant = 80, 250.0 // 20k IOPS aggregate, well below 4 SSDs
	addTenants(m, tenants, nssd, kernel.ClassThroughput, ArrivalSpec{Kind: ArrivalPoisson, Rate: perTenant})
	res := m.Run()

	want := tenants * perTenant * 0.2 // rate × runtime
	if res.Offered < int64(want*0.85) || res.Offered > int64(want*1.15) {
		t.Fatalf("offered arrivals %d, want ≈%.0f (±15%%)", res.Offered, want)
	}
	if res.Admitted != res.Offered {
		t.Fatalf("no admission control configured, but admitted %d != offered %d", res.Admitted, res.Offered)
	}
	if res.Completed != res.Admitted {
		t.Fatalf("completed %d != admitted %d (lost I/O?)", res.Completed, res.Admitted)
	}
	if res.Errors != 0 {
		t.Fatalf("unexpected errors: %d", res.Errors)
	}
	// Below saturation the per-I/O latency should be in the tens of
	// microseconds, measured from the intended arrival instant.
	if avg := res.Total.Avg / 1e3; avg < 10 || avg > 500 {
		t.Fatalf("implausible avg latency %.1fµs", avg)
	}
	// Class accounting in the kernel should line up with the mux's view.
	ios := r.k.IOStats()
	cls := ios.Class[kernel.ClassThroughput]
	if cls.Submitted != res.Admitted || cls.Completed != res.Completed {
		t.Fatalf("kernel class stats %+v disagree with mux result (admitted %d completed %d)",
			cls, res.Admitted, res.Completed)
	}
}

// TestMuxDeterminism: two identically seeded runs must agree exactly;
// a different seed must actually change the draw sequence.
func TestMuxDeterminism(t *testing.T) {
	run := func(seed uint64) string {
		r := newRig(t, 4, 2, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)
		m := NewMultiplexer(r.eng, r.k, MuxConfig{Runtime: 100 * sim.Millisecond, Seed: seed})
		addTenants(m, 30, 2, kernel.ClassLatency, ArrivalSpec{Kind: ArrivalMMPP, Rate: 400})
		addTenants(m, 30, 2, kernel.ClassBackground, ArrivalSpec{Kind: ArrivalDiurnal, Rate: 400})
		res := m.Run()
		return fmt.Sprintf("%d %d %d %v %v", res.Offered, res.Completed, res.Errors,
			res.Class[kernel.ClassLatency].Ladder, res.Class[kernel.ClassBackground].Ladder)
	}
	a, b := run(7), run(7)
	if a != b {
		t.Fatalf("same seed, different runs:\n%s\n%s", a, b)
	}
	if c := run(8); c == a {
		t.Fatalf("different seed produced identical run: %s", c)
	}
}

// TestMuxArrivalShapes: MMPP must burst (max inter-completion gap far
// above the mean) and all three processes must hold their long-run
// mean rate.
func TestMuxArrivalShapes(t *testing.T) {
	for _, tc := range []struct {
		name string
		arr  ArrivalSpec
	}{
		{"poisson", ArrivalSpec{Kind: ArrivalPoisson, Rate: 500}},
		{"mmpp", ArrivalSpec{Kind: ArrivalMMPP, Rate: 500}},
		{"diurnal", ArrivalSpec{Kind: ArrivalDiurnal, Rate: 500}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 4, 2, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)
			m := NewMultiplexer(r.eng, r.k, MuxConfig{Runtime: 400 * sim.Millisecond, Seed: 11})
			addTenants(m, 40, 2, kernel.ClassThroughput, tc.arr)
			res := m.Run()
			want := 40 * 500 * 0.4
			if res.Offered < int64(want*0.8) || res.Offered > int64(want*1.2) {
				t.Fatalf("%s offered %d, want ≈%.0f", tc.name, res.Offered, want)
			}
		})
	}
}

// TestMuxAdmissionShed: a shed-policy bucket far below the offered rate
// must drop the excess and keep admitted ≈ the bucket rate.
func TestMuxAdmissionShed(t *testing.T) {
	const nssd = 2
	r := newRig(t, 4, nssd, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)
	cfg := MuxConfig{Runtime: 200 * sim.Millisecond, Seed: 3}
	cfg.Class[kernel.ClassBackground] = ClassConfig{Rate: 5000, Policy: AdmitShed}
	m := NewMultiplexer(r.eng, r.k, cfg)
	addTenants(m, 50, nssd, kernel.ClassBackground, ArrivalSpec{Kind: ArrivalPoisson, Rate: 400}) // 20k offered
	res := m.Run()
	cr := res.Class[kernel.ClassBackground]
	if cr.Shed == 0 {
		t.Fatalf("expected sheds at 4x overcommit, got none: %+v", cr)
	}
	if cr.Admitted+cr.Shed != cr.Offered {
		t.Fatalf("admitted %d + shed %d != offered %d", cr.Admitted, cr.Shed, cr.Offered)
	}
	admittedRate := float64(cr.Admitted) / 0.2
	if admittedRate > 5000*1.1 {
		t.Fatalf("admitted rate %.0f exceeds 5000 bucket", admittedRate)
	}
}

// TestMuxAdmissionQueue: a queue-policy bucket delays, not drops — and
// the queue wait shows up in the ladder because latency runs from the
// intended arrival instant.
func TestMuxAdmissionQueue(t *testing.T) {
	const nssd = 2
	r := newRig(t, 4, nssd, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)

	base := MuxConfig{Runtime: 200 * sim.Millisecond, Seed: 3}
	run := func(cfg MuxConfig) ClassResult {
		rr := newRig(t, 4, nssd, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)
		m := NewMultiplexer(rr.eng, rr.k, cfg)
		addTenants(m, 50, nssd, kernel.ClassThroughput, ArrivalSpec{Kind: ArrivalPoisson, Rate: 200}) // 10k offered
		return m.Run().Class[kernel.ClassThroughput]
	}
	_ = r

	open := run(base)
	gated := base
	gated.Class[kernel.ClassThroughput] = ClassConfig{Rate: 9000, Policy: AdmitQueue, QueueLimit: 4096}
	q := run(gated)

	if q.Queued == 0 {
		t.Fatalf("expected queued arrivals at 1.1x overcommit, got none: %+v", q)
	}
	if q.Shed != 0 {
		t.Fatalf("queue policy must not shed below its limit: %+v", q)
	}
	if q.Ladder.P[2] <= open.Ladder.P[2] {
		t.Fatalf("queue wait should inflate p99: gated %.0fns <= open %.0fns", float64(q.Ladder.P[2]), float64(open.Ladder.P[2]))
	}
}

// TestMuxAdmissionThrottle: throttling defers arrivals (backpressure),
// so admitted+throttled accounting stays consistent and nothing is lost.
func TestMuxAdmissionThrottle(t *testing.T) {
	const nssd = 2
	r := newRig(t, 4, nssd, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)
	cfg := MuxConfig{Runtime: 200 * sim.Millisecond, Seed: 9}
	cfg.Class[kernel.ClassThroughput] = ClassConfig{Rate: 4000, Policy: AdmitThrottle}
	m := NewMultiplexer(r.eng, r.k, cfg)
	addTenants(m, 40, nssd, kernel.ClassThroughput, ArrivalSpec{Kind: ArrivalPoisson, Rate: 250}) // 10k offered
	res := m.Run()
	cr := res.Class[kernel.ClassThroughput]
	if cr.Throttled == 0 {
		t.Fatalf("expected throttling at 2.5x overcommit: %+v", cr)
	}
	if cr.Shed != 0 || cr.QueueShed != 0 {
		t.Fatalf("throttle policy must not drop arrivals: %+v", cr)
	}
	// Backpressure slows the streams to ≈ the bucket rate.
	admittedRate := float64(cr.Admitted) / 0.2
	if admittedRate > 4000*1.15 {
		t.Fatalf("admitted rate %.0f exceeds 4000 bucket under throttle", admittedRate)
	}
	// Offered reflects the slowed streams, not the free-running rate.
	if cr.Offered < cr.Admitted {
		t.Fatalf("offered %d < admitted %d", cr.Offered, cr.Admitted)
	}
}

// TestMuxSteadyStateAllocs: after warmup, advancing the mux must not
// allocate on the arrival/submit/complete path.
func TestMuxSteadyStateAllocs(t *testing.T) {
	r := newRig(t, 4, 4, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)
	m := NewMultiplexer(r.eng, r.k, MuxConfig{Runtime: 10 * sim.Second, Seed: 13})
	addTenants(m, 200, 4, kernel.ClassThroughput, ArrivalSpec{Kind: ArrivalMMPP, Rate: 200})
	m.Start(nil)
	// Warm up: freelists fill, wheel slots and histograms reach their
	// steady footprint.
	r.eng.RunUntil(r.eng.Now().Add(300 * sim.Millisecond))
	before := m.Result()
	_ = before
	avg := testing.AllocsPerRun(20, func() {
		r.eng.RunUntil(r.eng.Now().Add(10 * sim.Millisecond))
	})
	// Each 10ms window carries ~400 arrivals; a handful of allocations
	// per window (slice growth tails) is indistinguishable from zero
	// per-arrival cost, but per-arrival allocation would show up as
	// hundreds.
	if avg > 10 {
		t.Fatalf("steady-state allocations: %.1f per 10ms window (want ~0 per arrival)", avg)
	}
}

// TestMuxValidation: bad tenant specs fail fast.
func TestMuxValidation(t *testing.T) {
	r := newRig(t, 2, 1, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)
	m := NewMultiplexer(r.eng, r.k, MuxConfig{Runtime: 10 * sim.Millisecond})
	for _, tc := range []struct {
		name string
		spec TenantSpec
	}{
		{"zero-rate", TenantSpec{SSD: 0, Arrival: ArrivalSpec{Kind: ArrivalPoisson}}},
		{"negative-rate", TenantSpec{SSD: 0, Arrival: ArrivalSpec{Kind: ArrivalPoisson, Rate: -5}}},
		{"bad-ssd", TenantSpec{SSD: 9, Arrival: ArrivalSpec{Kind: ArrivalPoisson, Rate: 10}}},
		{"bad-class", TenantSpec{SSD: 0, Class: 7, Arrival: ArrivalSpec{Kind: ArrivalPoisson, Rate: 10}}},
		{"bad-kind", TenantSpec{SSD: 0, Arrival: ArrivalSpec{Kind: 42, Rate: 10}}},
		{"misspelled-rw", TenantSpec{SSD: 0, RW: "randwrte", Arrival: ArrivalSpec{Kind: ArrivalPoisson, Rate: 10}}},
		{"unknown-rw", TenantSpec{SSD: 0, RW: "write", Arrival: ArrivalSpec{Kind: ArrivalPoisson, Rate: 10}}},
	} {
		name, spec := tc.name, tc.spec
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("AddTenant(%+v) did not panic", spec)
				}
			}()
			m.AddTenant(spec)
		})
	}
}

// TestNewMultiplexerRejectsBadConfig: a config that would fail deep in
// the run, or quietly stand for a default, panics at construction with
// one line naming the setting; zero values keep meaning the defaults.
func TestNewMultiplexerRejectsBadConfig(t *testing.T) {
	r := newRig(t, 2, 1, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)
	withClass := func(c ClassConfig) MuxConfig {
		var cfg MuxConfig
		cfg.Class[kernel.ClassThroughput] = c
		return cfg
	}
	for _, tc := range []struct {
		name string
		cfg  MuxConfig
		want string
	}{
		{"cpu-out-of-range", MuxConfig{CPUs: []int{0, 99}}, "CPUs"},
		{"negative-cpu", MuxConfig{CPUs: []int{-1}}, "CPUs"},
		{"negative-runtime", MuxConfig{Runtime: -sim.Millisecond}, "Runtime"},
		{"negative-rate", withClass(ClassConfig{Rate: -1}), "Rate"},
		{"nan-rate", withClass(ClassConfig{Rate: math.NaN()}), "Rate"},
		{"infinite-rate", withClass(ClassConfig{Rate: math.Inf(1)}), "Rate"},
		{"unknown-policy", withClass(ClassConfig{Rate: 100, Policy: 7}), "Policy"},
		{"negative-policy", withClass(ClassConfig{Policy: -1}), "Policy"},
		{"negative-queue-limit", withClass(ClassConfig{Rate: 100, Policy: AdmitQueue, QueueLimit: -1}), "QueueLimit"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				p := recover()
				if p == nil {
					t.Fatalf("NewMultiplexer(%+v) did not panic", tc.cfg)
				}
				if s, ok := p.(string); !ok || !strings.Contains(s, tc.want) || strings.Contains(s, "\n") {
					t.Fatalf("panic %q is not one line naming %s", p, tc.want)
				}
			}()
			NewMultiplexer(r.eng, r.k, tc.cfg)
		})
	}

	// Zero values still mean the defaults.
	m := NewMultiplexer(r.eng, r.k, withClass(ClassConfig{Rate: 100, Policy: AdmitQueue}))
	if m.cfg.Runtime != 2*sim.Second || len(m.cfg.CPUs) != 2 || len(m.classes[kernel.ClassThroughput].queue) != 1024 {
		t.Fatalf("defaults not applied: runtime %v, CPUs %v, queue %d",
			m.cfg.Runtime, m.cfg.CPUs, len(m.classes[kernel.ClassThroughput].queue))
	}
}

// TestAddTenantAllocatesOnlyPages: registering 10,000 tenants allocates
// one tenant page per 256 tenants plus a small constant (the page
// index's growth) — no per-tenant stream, label or record copy.
func TestAddTenantAllocatesOnlyPages(t *testing.T) {
	r := newRig(t, 2, 1, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)
	const n = 10_000
	spec := TenantSpec{SSD: 0, RW: RandWrite, Arrival: ArrivalSpec{Kind: ArrivalMMPP, Rate: 10}}
	cfg := MuxConfig{Name: "allocs", Seed: 1}
	boot := testing.AllocsPerRun(3, func() { NewMultiplexer(r.eng, r.k, cfg) })
	full := testing.AllocsPerRun(3, func() {
		m := NewMultiplexer(r.eng, r.k, cfg)
		for i := 0; i < n; i++ {
			m.AddTenant(spec)
		}
	})
	pages := (n + tenantPageSize - 1) / tenantPageSize
	t.Logf("%d AddTenant calls: %.0f allocations for %d pages", n, full-boot, pages)
	if got := full - boot; got > float64(pages+16) {
		t.Fatalf("%d AddTenant calls made %.0f allocations, want at most %d pages + 16", n, got, pages)
	}
}
