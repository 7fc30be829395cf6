package fio

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sim"
)

// ArrivalKind selects the arrival process of an open-loop tenant stream.
type ArrivalKind int

// The three processes cover the load shapes the load ablation needs:
// memoryless steady state, bursty on/off, and slow rate modulation.
const (
	// ArrivalPoisson draws i.i.d. exponential inter-arrival gaps at
	// Rate/s — the memoryless baseline.
	ArrivalPoisson ArrivalKind = iota
	// ArrivalMMPP is a two-state Markov-modulated Poisson process: the
	// stream alternates between a calm state and a burst state (rate
	// multiplied by mmppBurst), with exponentially distributed dwell
	// times. The calm-state rate is scaled down so the long-run mean
	// stays Rate.
	ArrivalMMPP
	// ArrivalDiurnal modulates a Poisson process sinusoidally:
	// rate(t) = Rate·(1 + diurnalSwing·sin(2πt/diurnalPeriod)) — a
	// compressed day/night load curve.
	ArrivalDiurnal
)

// The shape constants of the modulated processes.
const (
	// mmppBurst multiplies the MMPP rate while bursting.
	mmppBurst = 8
	// mmppMeanCalm / mmppMeanBurst are the MMPP mean dwell times in each
	// state.
	mmppMeanCalm  = 10 * sim.Millisecond
	mmppMeanBurst = 2 * sim.Millisecond
	// diurnalPeriod is the diurnal modulation period and diurnalSwing its
	// depth in [0, 1).
	diurnalPeriod = 100 * sim.Millisecond
	diurnalSwing  = 0.8
)

// ArrivalSpec parameterizes an arrival process. Rate is the long-run
// mean arrival rate in I/Os per second for every kind.
type ArrivalSpec struct {
	Kind ArrivalKind
	// Rate is the long-run mean arrival rate (I/Os per second).
	Rate float64

	// calmRate is the precomputed MMPP calm-state rate that keeps the
	// long-run mean at Rate. Filled by normalize.
	calmRate float64
}

// normalize precomputes derived rates. It returns an error for specs
// that cannot generate a valid process.
func (a ArrivalSpec) normalize() (ArrivalSpec, error) {
	if a.Rate <= 0 {
		return a, fmt.Errorf("arrival rate must be positive, got %g", a.Rate)
	}
	switch a.Kind {
	case ArrivalPoisson, ArrivalDiurnal:
	case ArrivalMMPP:
		// Long-run mean = calmRate·(calm + mmppBurst·burst)/(calm+burst);
		// solve for calmRate so the mean equals Rate.
		calm, burst := mmppMeanCalm.Seconds(), mmppMeanBurst.Seconds()
		a.calmRate = a.Rate * (calm + burst) / (calm + mmppBurst*burst)
	default:
		return a, fmt.Errorf("unknown arrival kind %d", a.Kind)
	}
	return a, nil
}

// arrivalState is the per-tenant mutable state of an arrival process.
// Only MMPP uses it (the current modulation state and its expiry).
type arrivalState struct {
	bursting   bool
	stateUntil sim.Time
}

// nextGap draws the next inter-arrival gap at virtual time now, drawing
// only from rnd (the tenant's own stream, per the rngstream contract).
// Hot: called once per arrival for every tenant; no allocation, no
// dispatch.
func (a *ArrivalSpec) nextGap(now sim.Time, st *arrivalState, rnd *rng.Stream) sim.Duration {
	rate := a.Rate
	switch a.Kind {
	case ArrivalPoisson:
	case ArrivalMMPP:
		if now >= st.stateUntil {
			st.bursting = !st.bursting
			dwell := mmppMeanCalm
			if st.bursting {
				dwell = mmppMeanBurst
			}
			st.stateUntil = now.Add(sim.Duration(rnd.Exp(float64(dwell))))
		}
		rate = a.calmRate
		if st.bursting {
			rate = a.calmRate * mmppBurst
		}
	case ArrivalDiurnal:
		phase := 2 * pi * float64(int64(now)%int64(diurnalPeriod)) / float64(diurnalPeriod)
		// float64(...) keeps arm64 from fusing the product into an FMA.
		rate = a.Rate * (1 + float64(diurnalSwing*sinApprox(phase)))
	default:
		panic("fio: unnormalized ArrivalSpec")
	}
	gap := sim.Duration(rnd.Exp(1e9 / rate))
	if gap < 1 {
		gap = 1
	}
	return gap
}

const pi = 3.141592653589793

// sinApprox is a Bhaskara-style sine approximation for phase in
// [0, 2π), accurate to ~0.002 — far below the stochastic noise of the
// arrival draw it modulates, and free of any libm dependency on the
// per-arrival path.
func sinApprox(x float64) float64 {
	sign := 1.0
	if x >= pi {
		x -= pi
		sign = -1
	}
	return sign * 16 * x * (pi - x) / (5*pi*pi - float64(4*x*(pi-x)))
}
