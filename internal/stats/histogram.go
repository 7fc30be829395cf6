// Package stats implements the latency statistics pipeline used throughout
// the reproduction: a log-bucketed histogram (HDR-style), the fio
// completion-latency percentile ladder from the paper (average, 2-nines
// through 6-nines, and the 100th/maximum), cross-SSD aggregation (mean and
// standard deviation of each ladder rung over 64 devices, as plotted in
// Figs 12 and 14), and raw sample logs for the Fig 10 scatter plot.
package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// Histogram records value counts with bounded relative error, like an HDR
// histogram. Values are expected to be latencies in nanoseconds but any
// positive int64 works. Each power of two is split into subBuckets linear
// buckets, bounding relative quantile error to ~1/subBuckets (0.78% here).
//
// Storage is sparse: the buckets are grouped into chunks of chunkSize,
// and a chunk exists only once one of its buckets has been recorded. A
// latency distribution touches a few of the 44 octaves the layout
// covers, so a histogram usually holds one 8 KB slab of chunks, not all
// 38.9 KB of buckets.
type Histogram struct {
	// chunks[c] counts buckets [c*chunkSize, (c+1)*chunkSize); nil until
	// one of them is recorded.
	chunks [numChunks]*[chunkSize]int64
	// slab is the uncut rest of the slab that new chunks are cut from.
	slab  []int64
	total int64
	sum   float64
	min   int64
	max   int64
}

const (
	// Values below 2^subBucketBits are recorded exactly; above that, each
	// octave [2^e, 2^(e+1)) is split into 2^(subBucketBits-1) linear
	// buckets, bounding relative quantile error to 2^-(subBucketBits-1)
	// (0.78% here).
	subBucketBits = 8
	subBuckets    = 1 << subBucketBits
	halfBuckets   = subBuckets / 2
	// maxShift covers values up to ~2^43 ns ≈ 2.4 h of simulated latency,
	// far beyond anything the model produces.
	maxShift   = 36
	numBuckets = subBuckets + maxShift*halfBuckets

	// An octave is halfBuckets buckets, two chunks; the exact region is
	// four. numBuckets is a whole number of chunks.
	chunkBits = 6
	chunkSize = 1 << chunkBits
	numChunks = numBuckets / chunkSize
	// slabChunks chunks make one 8 KB slab: any 8 consecutive octaves.
	slabChunks = 16
)

// NewHistogram returns an empty histogram. It allocates no buckets until
// the first Record.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64}
}

// bucketIndex maps a positive value to its bucket.
func bucketIndex(v int64) int {
	if v < subBuckets {
		return int(v) // exact region
	}
	exp := 63 - bits.LeadingZeros64(uint64(v)) // floor(log2 v) >= subBucketBits
	shift := exp - subBucketBits + 1           // >= 1
	sub := int(v >> uint(shift))               // in [halfBuckets, subBuckets)
	return subBuckets + (shift-1)*halfBuckets + (sub - halfBuckets)
}

// bucketLow returns the smallest value mapping to bucket i; used to report
// quantiles.
func bucketLow(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	k := i - subBuckets
	shift := k/halfBuckets + 1
	sub := k%halfBuckets + halfBuckets
	return int64(sub) << uint(shift)
}

// Record adds one observation. Non-positive values are clamped to 1 (the
// simulator never produces them, but defensive clamping keeps property
// tests simple).
func (h *Histogram) Record(v int64) {
	if v < 1 {
		v = 1
	}
	idx := bucketIndex(v)
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	ci := idx >> chunkBits
	c := h.chunks[ci]
	if c == nil {
		c = h.newChunk(ci)
	}
	c[idx&(chunkSize-1)]++
	h.total++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// newChunk cuts chunk ci from the slab, starting a new slab when the
// current one is used up.
func (h *Histogram) newChunk(ci int) *[chunkSize]int64 {
	if len(h.slab) == 0 {
		h.slab = make([]int64, slabChunks*chunkSize)
	}
	c := (*[chunkSize]int64)(h.slab)
	h.slab = h.slab[chunkSize:]
	h.chunks[ci] = c
	return c
}

// Count reports the number of recorded observations.
func (h *Histogram) Count() int64 { return h.total }

// Mean reports the arithmetic mean of the exact recorded values.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min reports the smallest recorded value (0 when empty).
func (h *Histogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max reports the largest recorded value exactly (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Quantile reports the value at quantile q in [0, 1]. q=1 returns the exact
// maximum; other quantiles carry the bucket's relative error. Empty
// histograms report 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := h.rank(q)
	var seen int64
	for ci, c := range &h.chunks {
		if c == nil {
			continue
		}
		for j, n := range c {
			seen += n
			if seen >= rank {
				return h.bucketValue(ci<<chunkBits | j)
			}
		}
	}
	return h.max
}

// rank is the 1-based rank of quantile q in (0, 1): the smallest count
// of observations that covers a q share of them.
func (h *Histogram) rank(q float64) int64 {
	return max(int64(math.Ceil(q*float64(h.total))), 1)
}

// bucketValue reports a quantile that falls in bucket i. The bucket's
// lower edge keeps quantiles conservative and monotonic; clamping into
// [min, max] keeps a bucket edge below the exact minimum from leaking
// out.
func (h *Histogram) bucketValue(i int) int64 {
	v := bucketLow(i)
	if v < h.min {
		v = h.min
	}
	if v > h.max {
		v = h.max
	}
	return v
}

// Quantiles fills out[i] with Quantile(qs[i]) for ascending qs in one scan
// over the buckets, computing each target rank once. LadderOf calls it
// with five nines-quantiles, so the per-SSD summary costs one bucket walk
// instead of five.
func (h *Histogram) Quantiles(qs []float64, out []int64) {
	if len(qs) != len(out) {
		panic("stats: Quantiles length mismatch")
	}
	next := 0
	// Edge quantiles don't need the scan.
	for next < len(qs) && qs[next] <= 0 {
		out[next] = h.Min()
		next++
	}
	if h.total == 0 {
		for i := next; i < len(qs); i++ {
			out[i] = 0
		}
		return
	}
	if next < len(qs) && qs[next] < 1 {
		rank := h.rank(qs[next])
		var seen int64
	scan:
		for ci, c := range &h.chunks {
			if c == nil {
				continue
			}
			for j, n := range c {
				if n == 0 {
					continue
				}
				seen += n
				for seen >= rank {
					out[next] = h.bucketValue(ci<<chunkBits | j)
					if next++; next == len(qs) || qs[next] >= 1 {
						break scan
					}
					rank = h.rank(qs[next])
				}
			}
		}
	}
	for i := next; i < len(qs); i++ {
		out[i] = h.max
	}
}

// Merge adds all of o's observations into h.
func (h *Histogram) Merge(o *Histogram) {
	for ci, oc := range &o.chunks {
		if oc == nil {
			continue
		}
		c := h.chunks[ci]
		if c == nil {
			c = h.newChunk(ci)
		}
		for j, n := range oc {
			c[j] += n
		}
	}
	h.total += o.total
	h.sum += o.sum
	if o.total > 0 {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
}

// Reset discards all observations and returns the histogram to its
// constructed state: its slabs are dropped, not kept for reuse.
func (h *Histogram) Reset() {
	h.chunks = [numChunks]*[chunkSize]int64{}
	h.slab = nil
	h.total = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}

func (h *Histogram) String() string {
	return fmt.Sprintf("histogram{n=%d mean=%.0f max=%d}", h.total, h.Mean(), h.max)
}
