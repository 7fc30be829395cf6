// Package pts implements the SNIA Solid State Storage Performance Test
// Specification (Enterprise) machinery the paper's methodology cites
// (Section III-B follows PTS-E chapter 9 to minimize system overhead on
// I/O latency): the purge → precondition → measure-until-steady-state
// protocol and the spec's steady-state detection criteria.
//
// Steady state per PTS-E: over a measurement window of five rounds, the tracked variable must satisfy both
//
//   - excursion: max(y) - min(y) ≤ 20% of avg(y), and
//   - slope: the best-fit line's rise over the window ≤ 10% of avg(y).
//
// The package is pure protocol/math; the core package binds it to the
// simulated array.
package pts

import (
	"fmt"
	"math"
)

// The PTS-E steady-state criteria.
const (
	// window is the number of consecutive rounds examined.
	window = 5
	// maxExcursion is the allowed (max-min)/avg of the window.
	maxExcursion = 0.20
	// maxSlope is the allowed |slope|·(window-1)/avg of the window.
	maxSlope = 0.10
)

// Check reports whether the last window entries of rounds meet the
// criteria, along with the computed excursion and normalized slope.
func Check(rounds []float64) (steady bool, excursion, slope float64) {
	if len(rounds) < window {
		return false, math.NaN(), math.NaN()
	}
	w := rounds[len(rounds)-window:]
	min, max, sum := w[0], w[0], 0.0
	for _, y := range w {
		if y < min {
			min = y
		}
		if y > max {
			max = y
		}
		sum += y
	}
	avg := sum / float64(len(w))
	if avg == 0 {
		return false, math.NaN(), math.NaN()
	}
	excursion = (max - min) / avg

	// Least-squares slope over x = 0..n-1. float64(x*y) rounds each
	// product alone, so arm64 cannot fuse it into an FMA.
	n := float64(len(w))
	var sx, sy, sxx, sxy float64
	for i, y := range w {
		x := float64(i)
		sx += x
		sy += y
		sxx += float64(x * x)
		sxy += float64(x * y)
	}
	b := (float64(n*sxy) - float64(sx*sy)) / (float64(n*sxx) - float64(sx*sx))
	slope = math.Abs(b) * (n - 1) / avg

	steady = excursion <= maxExcursion && slope <= maxSlope
	return steady, excursion, slope
}

// Result records a full protocol run.
type Result struct {
	// Rounds holds the tracked variable, one entry per measurement round.
	Rounds []float64
	// Steady reports whether steady state was reached within MaxRounds.
	Steady bool
	// SteadyAt is the 1-based round at which the window first qualified
	// (0 if never).
	SteadyAt int
	// Excursion/Slope are the final window's values.
	Excursion float64
	Slope     float64
}

// Run executes the measurement loop: measure(round) produces one round's
// tracked value; rounds continue until the criteria hold or maxRounds is
// hit. PTS-E requires at least window rounds and allows up to 25 before
// declaring "steady state not reached".
func Run(maxRounds int, measure func(round int) float64) Result {
	if maxRounds < window {
		panic(fmt.Sprintf("pts: maxRounds %d < window %d", maxRounds, window))
	}
	var res Result
	for round := 1; round <= maxRounds; round++ {
		res.Rounds = append(res.Rounds, measure(round))
		steady, exc, slope := Check(res.Rounds)
		res.Excursion, res.Slope = exc, slope
		if steady {
			res.Steady = true
			res.SteadyAt = round
			return res
		}
	}
	return res
}
