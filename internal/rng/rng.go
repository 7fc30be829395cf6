// Package rng provides deterministic pseudo-random number streams for the
// simulator.
//
// Every model component (each SSD's firmware, each daemon, the IRQ
// balancer, ...) owns its own stream derived from the experiment seed and a
// component label, so adding or removing one component never perturbs the
// draws seen by another. That property is what makes A/B comparisons
// between kernel configurations meaningful: the background daemons wake at
// the same instants under "default" and under "chrt".
//
// The generator is xoshiro256** seeded through SplitMix64 — small, fast,
// and entirely reproducible across platforms (stdlib math/rand/v2 sources
// are not guaranteed stable across Go releases).
package rng

import (
	"math"
)

// Stream is a deterministic random number generator. It is not safe for
// concurrent use; the simulator is single-threaded by design.
type Stream struct {
	s    [4]uint64
	seed uint64 // seed material, retained so Derive is draw-order independent
}

// splitMix64 advances x and returns the next SplitMix64 output.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a stream seeded from seed. Streams with different seeds are
// statistically independent.
func New(seed uint64) *Stream {
	st := seeded(seed)
	return &st
}

// seeded returns the stream New(seed) points to, by value.
func seeded(seed uint64) Stream {
	st := Stream{seed: seed}
	x := seed
	for i := range st.s {
		st.s[i] = splitMix64(&x)
	}
	// xoshiro must not start in the all-zero state.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
	return st
}

// hashString is FNV-1a, used to fold component labels into seeds.
func hashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Derive returns a new independent stream for the named sub-component.
// Derivation mixes the parent's seed material, not its evolving state, so
// the result does not depend on how many values the parent has drawn.
// Deriving the same label twice yields identical streams; different labels
// yield independent ones.
func (r *Stream) Derive(label string) *Stream {
	return New(r.seed ^ hashString(label))
}

// NewLabeled returns a stream for (seed, label); the canonical way for a
// component to obtain its private stream.
func NewLabeled(seed uint64, label string) *Stream {
	return New(seed ^ hashString(label))
}

// DeriveIndexed returns the i-th child stream of r, for components that
// own a dense array of peers (one stream per tenant, per shard, ...).
// Like Derive it mixes seed material, not evolving state, so child i is
// the same stream no matter how much the parent or its siblings have
// drawn. The index is golden-ratio mixed before the xor so adjacent
// indices land in unrelated seed neighborhoods. The child is returned
// by value, so an owner can build it in place in its own array without
// a heap allocation.
func (r *Stream) DeriveIndexed(i uint64) Stream {
	return seeded(r.seed ^ (i+1)*0x9e3779b97f4a7c15)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Stream) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n)) // modulo bias is irrelevant at model scale
}

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (r *Stream) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *Stream) Bool(p float64) bool {
	return r.Float64() < p
}

// Uniform returns a uniform value in [lo, hi).
func (r *Stream) Uniform(lo, hi float64) float64 {
	// A float64(x*y) conversion rounds the product on its own, so arm64
	// cannot fuse x*y + z into one FMA and draw differently from amd64.
	return lo + float64((hi-lo)*r.Float64())
}

// Exp returns an exponentially distributed value with the given mean.
func (r *Stream) Exp(mean float64) float64 {
	u := r.Float64()
	// Guard u == 0, whose log is -Inf.
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a normally distributed value (Box–Muller).
func (r *Stream) Normal(mean, sigma float64) float64 {
	var u, v float64
	for u == 0 {
		u = r.Float64()
	}
	v = r.Float64()
	z := math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	return mean + float64(sigma*z)
}

// stdNormalChunk is how many uniform pairs StdNormals holds on the stack
// at once.
const stdNormalChunk = 16

// StdNormals fills dst with standard normal values: dst[i] is the z of
// the i-th of len(dst) successive Normal calls, so mean + float64(sigma*z)
// equals that call's Normal(mean, sigma) bit for bit. The uniforms are
// drawn in Normal's order, the u == 0 retry included, and only then are
// the Box–Muller transforms taken, each an independent chain, so a CPU
// can overlap them where back-to-back Normal calls run one after another.
func (r *Stream) StdNormals(dst []float64) {
	var v [stdNormalChunk]float64
	for len(dst) > 0 {
		n := min(len(dst), stdNormalChunk)
		for i := range n {
			var u float64
			for u == 0 {
				u = r.Float64()
			}
			dst[i], v[i] = u, r.Float64()
		}
		for i := range n {
			dst[i] = math.Sqrt(-2*math.Log(dst[i])) * math.Cos(2*math.Pi*v[i])
		}
		dst = dst[n:]
	}
}

// LogNormal returns a log-normally distributed value whose underlying
// normal has parameters mu and sigma.
func (r *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// LogNormalMean returns a log-normal draw parameterized by its target mean
// and the sigma of the underlying normal; convenient for service-time
// models ("mean 2 ms, heavy-ish tail").
func (r *Stream) LogNormalMean(mean, sigma float64) float64 {
	if mean <= 0 {
		panic("rng: LogNormalMean with non-positive mean")
	}
	mu := math.Log(mean) - float64(sigma*sigma/2)
	return r.LogNormal(mu, sigma)
}
