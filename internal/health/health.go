// Package health is the per-SSD health tracker behind the adaptive
// tolerance control plane. The kernel feeds it one observation per
// managed-command outcome (completion latency + status, or a timeout),
// and it maintains, per drive:
//
//   - a smoothed completion-latency baseline (integer Jacobson/Karels
//     srtt + rttvar, the TCP RTO estimator — cheap, float-free, and
//     deterministic);
//   - windowed spike/timeout/error counts that flag GC storms (a burst
//     of latency spikes) and firmware stalls (a burst of timeouts);
//   - a suspicion score in permille that rises immediately on bad events
//     and decays multiplicatively only across clean windows, so a
//     recovering drive re-earns trust gradually (hysteresis);
//   - a published per-drive hedge deadline, recalibrated on a
//     fixed-observation-count cadence: srtt + 4·rttvar clamped into
//     [hedgeFloor, hedgeCap], scaled toward the floor as suspicion
//     rises so the RAID layer hedges a sick drive sooner.
//
// The tracker is sim-core: no wall clock, no randomness, no maps, no
// goroutines. Its state is a pure function of the observation sequence,
// which the determinism tests rely on. All per-observation work is
// integer arithmetic on dense slices, keeping it clean under the
// performance contract (it sits on the kernel's completion hot path).
package health

import (
	"repro/internal/nvme"
	"repro/internal/sim"
)

// The tracker's calibration. The floor sits at half the static hedge
// floor (raid.DefaultTolerance's 300 µs): a drive we positively distrust
// is worth hedging earlier than a cold one.
const (
	// hedgeFloor is the lowest deadline the tracker will ever publish: a
	// fully-suspect drive is hedged this quickly. It also floors the
	// healthy deadline so a very fast drive cannot drag hedges into the
	// noise.
	hedgeFloor = 150 * sim.Microsecond
	// hedgeCap bounds the published deadline from above, so a drive with
	// a huge latency baseline (a slow bin mid-storm) still gets hedged
	// well before the kernel timeout ladder.
	hedgeCap = 4 * sim.Millisecond
	// minSamples is how many latency samples a drive needs before its
	// deadline is published; until then HedgeDeadline returns 0 and
	// callers fall back to their static setting.
	minSamples = 64
	// spikeFactor classifies a sample as a spike when it exceeds
	// spikeFactor × srtt. Spike samples are counted but excluded from
	// the EWMA, so a GC storm cannot inflate the baseline it is judged
	// against (a storm that fed the estimator would stop registering as
	// one within a handful of samples).
	spikeFactor = 4
	// window is the calibration cadence in observations: every window
	// observations the deadline is republished, storm/stall flags are
	// re-evaluated, and a clean window decays suspicion by a quarter.
	window = 128
	// stormSpikes within one window flags a GC storm.
	stormSpikes = 8
	// stallTimeouts within one window flags a firmware stall.
	stallTimeouts = 2
)

// Suspicion is expressed in permille of certain-sick.
const (
	maxSuspicion = 1000
	// Immediate suspicion bumps per bad event. A timeout is near-certain
	// evidence; an error or spike is weaker.
	timeoutSuspicion = 400
	errorSuspicion   = 100
	spikeSuspicion   = 50
)

// drive is one SSD's tracked state. Dense struct-of-counters, indexed
// by SSD id — no maps on the observation path.
type drive struct {
	// Jacobson/Karels estimator state, in nanoseconds.
	srtt    int64
	rttvar  int64
	samples int64

	// deadline is the published hedge deadline (0 until warm).
	deadline sim.Duration
	// suspicion in [0, maxSuspicion].
	suspicion int64

	// Current-window counters, reset at each calibration.
	wObs      int64
	wSpikes   int64
	wTimeouts int64
	wErrors   int64

	// Running totals for reporting.
	spikes      int64
	timeouts    int64
	retries     int64
	transients  int64
	mediaErrors int64

	storming bool
	stalled  bool
}

// Tracker tracks the health of a fleet of drives.
type Tracker struct {
	drives []drive
}

// NewTracker returns a tracker for n drives.
func NewTracker(n int) *Tracker {
	return &Tracker{drives: make([]drive, n)}
}

// Observe feeds one completed command's end-to-end attempt latency and
// final status. Called from the kernel's completion path for every
// managed command that actually completed (timeouts go through
// ObserveTimeout instead — there is no latency to observe).
func (t *Tracker) Observe(ssd int, lat sim.Duration, status nvme.Status) {
	d := &t.drives[ssd]
	switch status {
	case nvme.StatusSuccess:
		t.observeLatency(d, int64(lat))
	case nvme.StatusTransient:
		d.transients++
		t.observeError(d)
	case nvme.StatusMediaError:
		d.mediaErrors++
		t.observeError(d)
	case nvme.StatusAborted:
		// Host-side abort outcomes arrive via ObserveTimeout; a device
		// returning aborted is treated like any other error.
		t.observeError(d)
	default:
		t.observeError(d)
	}
	d.wObs++
	if d.wObs >= window {
		t.calibrate(d)
	}
}

// ObserveTimeout records a per-attempt deadline that fired against the
// drive: the strongest single piece of badness evidence.
func (t *Tracker) ObserveTimeout(ssd int) {
	d := &t.drives[ssd]
	d.timeouts++
	d.wTimeouts++
	if d.wTimeouts >= stallTimeouts {
		d.stalled = true
	}
	t.raiseSuspicion(d, timeoutSuspicion)
	d.wObs++
	if d.wObs >= window {
		t.calibrate(d)
	}
}

// ObserveRetry records a granted retry against the drive (budget
// accounting lives in the kernel; this is purely reporting state).
func (t *Tracker) ObserveRetry(ssd int) {
	t.drives[ssd].retries++
}

// observeLatency runs the Jacobson/Karels update on one successful
// completion, classifying and clamping spikes first.
func (t *Tracker) observeLatency(d *drive, l int64) {
	if l < 1 {
		l = 1
	}
	if d.samples == 0 {
		d.srtt = l
		d.rttvar = l / 2
		d.samples = 1
		return
	}
	// Spike detection needs a settled baseline; the first few samples
	// just feed the estimator.
	if d.samples >= 8 && l > spikeFactor*d.srtt {
		d.spikes++
		d.wSpikes++
		if d.wSpikes >= stormSpikes {
			d.storming = true
		}
		t.raiseSuspicion(d, spikeSuspicion)
		// The spike is recorded but kept out of the estimator: a storm
		// must not inflate the baseline it is judged against. Sustained
		// sub-spike drift (a ×2-3 slowdown) is still learned normally,
		// and a drive that is slow from boot seeds its own baseline.
		return
	}
	err := l - d.srtt
	d.srtt += err / 8
	if err < 0 {
		err = -err
	}
	d.rttvar += (err - d.rttvar) / 4
	d.samples++
}

// observeError counts a non-success completion in the window and bumps
// suspicion immediately.
func (t *Tracker) observeError(d *drive) {
	d.wErrors++
	t.raiseSuspicion(d, errorSuspicion)
}

// raiseSuspicion bumps suspicion (clamped) and republishes the deadline
// at once — distrust must not wait for the window boundary.
func (t *Tracker) raiseSuspicion(d *drive, by int64) {
	d.suspicion += by
	if d.suspicion > maxSuspicion {
		d.suspicion = maxSuspicion
	}
	t.publish(d)
}

// calibrate closes an observation window: storm/stall flags are
// re-evaluated, a clean window decays suspicion by a quarter (the
// gradual re-earning of trust), and the deadline is republished.
func (t *Tracker) calibrate(d *drive) {
	clean := d.wSpikes == 0 && d.wTimeouts == 0 && d.wErrors == 0
	if d.wSpikes == 0 {
		d.storming = false
	}
	if d.wTimeouts == 0 {
		d.stalled = false
	}
	if clean {
		d.suspicion -= d.suspicion / 4
		if d.suspicion < 4 {
			d.suspicion = 0
		}
	}
	d.wObs = 0
	d.wSpikes = 0
	d.wTimeouts = 0
	d.wErrors = 0
	t.publish(d)
}

// publish recomputes the drive's hedge deadline: the RTO-style bound
// srtt + 4·rttvar clamped into [hedgeFloor, hedgeCap], then pulled
// linearly toward the floor as suspicion rises.
func (t *Tracker) publish(d *drive) {
	if d.samples < minSamples {
		return
	}
	base := d.srtt + 4*d.rttvar
	floor := int64(hedgeFloor)
	if base < floor {
		base = floor
	}
	if cap := int64(hedgeCap); base > cap {
		base = cap
	}
	eff := floor + (base-floor)*(maxSuspicion-d.suspicion)/maxSuspicion
	d.deadline = sim.Duration(eff)
}

// HedgeDeadline reports the drive's published hedge deadline, or 0
// while the drive is still warming up (fewer than minSamples latency
// samples) — callers fall back to their static delay.
func (t *Tracker) HedgeDeadline(ssd int) sim.Duration {
	return t.drives[ssd].deadline
}

// Suspicion reports the drive's suspicion score in permille.
func (t *Tracker) Suspicion(ssd int) int64 { return t.drives[ssd].suspicion }

// NumDrives reports the fleet size the tracker was built for.
func (t *Tracker) NumDrives() int { return len(t.drives) }

// DriveHealth is one drive's reportable state. Integer-valued
// throughout so renderings are byte-stable.
type DriveHealth struct {
	SSD       int
	SRTT      sim.Duration
	RTTVar    sim.Duration
	Deadline  sim.Duration // 0 until warm
	Suspicion int64        // permille
	Samples   int64
	Spikes    int64
	Timeouts  int64
	Retries   int64
	Errors    int64 // transient + media-error completions
	Storming  bool
	Stalled   bool
}

// Snapshot reports one drive's state.
func (t *Tracker) Snapshot(ssd int) DriveHealth {
	d := &t.drives[ssd]
	return DriveHealth{
		SSD:       ssd,
		SRTT:      sim.Duration(d.srtt),
		RTTVar:    sim.Duration(d.rttvar),
		Deadline:  d.deadline,
		Suspicion: d.suspicion,
		Samples:   d.samples,
		Spikes:    d.spikes,
		Timeouts:  d.timeouts,
		Retries:   d.retries,
		Errors:    d.transients + d.mediaErrors,
		Storming:  d.storming,
		Stalled:   d.stalled,
	}
}
