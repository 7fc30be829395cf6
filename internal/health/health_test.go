package health

import (
	"testing"

	"repro/internal/nvme"
	"repro/internal/sim"
)

// suspectAt is the suspicion, in permille, at which the tests count a
// drive as distrusted.
const suspectAt = 500

func feedClean(t *Tracker, ssd int, n int, lat sim.Duration) {
	for i := 0; i < n; i++ {
		t.Observe(ssd, lat, nvme.StatusSuccess)
	}
}

func TestWarmupGatesDeadline(t *testing.T) {
	tr := NewTracker(2)
	feedClean(tr, 0, minSamples-1, 100*sim.Microsecond)
	if d := tr.HedgeDeadline(0); d != 0 {
		t.Fatalf("deadline published before minSamples: %v", d)
	}
	feedClean(tr, 0, window, 100*sim.Microsecond)
	if d := tr.HedgeDeadline(0); d == 0 {
		t.Fatal("deadline still unpublished after warmup + a full window")
	}
	// The untouched drive stays cold.
	if d := tr.HedgeDeadline(1); d != 0 {
		t.Fatalf("untouched drive published a deadline: %v", d)
	}
}

func TestPerDriveDeadlinesTrackOwnLatency(t *testing.T) {
	tr := NewTracker(2)
	n := minSamples + window
	feedClean(tr, 0, n, 50*sim.Microsecond)
	feedClean(tr, 1, n, 800*sim.Microsecond)
	fast, slow := tr.HedgeDeadline(0), tr.HedgeDeadline(1)
	if fast == 0 || slow == 0 {
		t.Fatalf("deadlines unpublished: fast=%v slow=%v", fast, slow)
	}
	if fast >= slow {
		t.Fatalf("fast drive's deadline %v not below slow drive's %v", fast, slow)
	}
	if fast < hedgeFloor {
		t.Fatalf("deadline %v below floor %v", fast, hedgeFloor)
	}
	// A steady 800 µs drive should be hedged near its own baseline, far
	// above the floor a one-size-fits-all delay would impose.
	if slow < 800*sim.Microsecond {
		t.Fatalf("slow drive's deadline %v below its own baseline", slow)
	}
	if slow > hedgeCap {
		t.Fatalf("deadline %v above cap %v", slow, hedgeCap)
	}
}

func TestSpikesFlagStormWithoutPoisoningBaseline(t *testing.T) {
	tr := NewTracker(1)
	feedClean(tr, 0, minSamples+window, 100*sim.Microsecond)
	base := tr.Snapshot(0).SRTT
	// A GC storm: a burst of 20× samples.
	for i := int64(0); i < stormSpikes; i++ {
		tr.Observe(0, 2*sim.Millisecond, nvme.StatusSuccess)
	}
	s := tr.Snapshot(0)
	if !s.Storming {
		t.Fatalf("storm not flagged after %d spikes", stormSpikes)
	}
	if s.Spikes != stormSpikes {
		t.Fatalf("spikes = %d, want %d", s.Spikes, stormSpikes)
	}
	// Clamped updates: the baseline may drift up but not anywhere near
	// the raw spike magnitude.
	if s.SRTT > 4*base {
		t.Fatalf("srtt %v poisoned by spikes (baseline %v)", s.SRTT, base)
	}
	if s.Suspicion == 0 {
		t.Fatal("storm raised no suspicion")
	}
}

func TestTimeoutsFlagStallAndPullDeadlineToFloor(t *testing.T) {
	tr := NewTracker(1)
	feedClean(tr, 0, minSamples+window, 400*sim.Microsecond)
	healthy := tr.HedgeDeadline(0)
	for i := int64(0); i < stallTimeouts; i++ {
		tr.ObserveTimeout(0)
	}
	s := tr.Snapshot(0)
	if !s.Stalled {
		t.Fatalf("stall not flagged after %d timeouts", stallTimeouts)
	}
	if tr.Suspicion(0) < suspectAt {
		t.Fatalf("suspicion %d below the suspect threshold after timeouts", s.Suspicion)
	}
	if d := tr.HedgeDeadline(0); d >= healthy {
		t.Fatalf("deadline %v did not drop from healthy %v under suspicion", d, healthy)
	}
	// Full suspicion pins the deadline at the floor.
	for i := 0; i < 10; i++ {
		tr.ObserveTimeout(0)
	}
	if d := tr.HedgeDeadline(0); d != hedgeFloor {
		t.Fatalf("fully-suspect deadline = %v, want floor %v", d, hedgeFloor)
	}
}

func TestSuspicionDecaysGraduallyAcrossCleanWindows(t *testing.T) {
	tr := NewTracker(1)
	feedClean(tr, 0, minSamples+window, 200*sim.Microsecond)
	for i := 0; i < 5; i++ {
		tr.ObserveTimeout(0)
	}
	if got := tr.Suspicion(0); got != 1000 {
		t.Fatalf("suspicion = %d, want saturated 1000", got)
	}
	// Clean service must not restore trust at once. Two windows' worth
	// guarantees at least one fully-clean window closes (the first close
	// after the timeouts still has them in its counters)...
	feedClean(tr, 0, 2*window, 200*sim.Microsecond)
	after1 := tr.Suspicion(0)
	if after1 == 0 || after1 >= 1000 {
		t.Fatalf("clean windows left suspicion at %d, want partial decay", after1)
	}
	if tr.Suspicion(0) < suspectAt {
		t.Fatal("drive fully trusted after only two clean windows")
	}
	// ...but sustained clean service re-earns it, monotonically.
	prev := after1
	for w := 0; w < 25; w++ {
		feedClean(tr, 0, window, 200*sim.Microsecond)
		cur := tr.Suspicion(0)
		if cur > prev {
			t.Fatalf("suspicion rose (%d -> %d) across a clean window", prev, cur)
		}
		prev = cur
	}
	if prev != 0 {
		t.Fatalf("suspicion = %d after sustained clean service, want 0", prev)
	}
	if tr.Suspicion(0) >= suspectAt {
		t.Fatal("drive still suspect after sustained clean service")
	}
}

func TestErrorsRaiseSuspicion(t *testing.T) {
	tr := NewTracker(1)
	feedClean(tr, 0, minSamples+window, 100*sim.Microsecond)
	tr.Observe(0, 100*sim.Microsecond, nvme.StatusTransient)
	tr.Observe(0, 100*sim.Microsecond, nvme.StatusMediaError)
	s := tr.Snapshot(0)
	if s.Errors != 2 {
		t.Fatalf("errors = %d, want 2", s.Errors)
	}
	if s.Suspicion == 0 {
		t.Fatal("errors raised no suspicion")
	}
}

func TestRetryAccounting(t *testing.T) {
	tr := NewTracker(1)
	tr.ObserveRetry(0)
	tr.ObserveRetry(0)
	if got := tr.Snapshot(0).Retries; got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
}

// TestDeterministicReplay: identical observation sequences produce
// identical state — the property the byte-identical-reports contract
// needs from this package.
func TestDeterministicReplay(t *testing.T) {
	run := func() []DriveHealth {
		tr := NewTracker(3)
		lat := []sim.Duration{80 * sim.Microsecond, 120 * sim.Microsecond, 3 * sim.Millisecond}
		for i := 0; i < 1000; i++ {
			ssd := i % 3
			st := nvme.StatusSuccess
			if i%97 == 0 {
				st = nvme.StatusTransient
			}
			tr.Observe(ssd, lat[i%len(lat)], st)
			if i%211 == 0 {
				tr.ObserveTimeout(ssd)
				tr.ObserveRetry(ssd)
			}
		}
		out := make([]DriveHealth, 3)
		for i := range out {
			out[i] = tr.Snapshot(i)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("drive %d state diverged across identical replays:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}
