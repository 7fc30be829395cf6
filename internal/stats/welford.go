package stats

import "math"

// Welford computes a running mean and (population) standard deviation in a
// single numerically stable pass.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += float64(d * (x - w.mean))
}

// N reports the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean reports the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var reports the population variance (0 for fewer than 2 observations).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Std reports the population standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }
