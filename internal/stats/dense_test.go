package stats

import (
	"math"
	"reflect"
	"testing"
)

// denseHistogram is the histogram as it was before sparse storage: every
// bucket allocated up front in one slice. It shares bucketIndex and
// bucketLow with Histogram and is kept as the reference that
// FuzzHistogramMatchesDense compares the sparse storage against.
type denseHistogram struct {
	counts []int64
	total  int64
	sum    float64
	min    int64
	max    int64
}

func newDenseHistogram() *denseHistogram {
	return &denseHistogram{
		counts: make([]int64, numBuckets),
		min:    math.MaxInt64,
	}
}

func (h *denseHistogram) Record(v int64) {
	if v < 1 {
		v = 1
	}
	idx := bucketIndex(v)
	if idx >= len(h.counts) {
		idx = len(h.counts) - 1
	}
	h.counts[idx]++
	h.total++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

func (h *denseHistogram) Count() int64 { return h.total }

func (h *denseHistogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

func (h *denseHistogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

func (h *denseHistogram) Max() int64 { return h.max }

func (h *denseHistogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			v := bucketLow(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

func (h *denseHistogram) Quantiles(qs []float64, out []int64) {
	if len(qs) != len(out) {
		panic("stats: Quantiles length mismatch")
	}
	next := 0
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
	var seen int64
	for i, c := range h.counts {
		if next == len(qs) || qs[next] >= 1 {
			break
		}
		if c == 0 {
			continue
		}
		seen += c
		for next < len(qs) && qs[next] < 1 {
			rank := int64(math.Ceil(qs[next] * float64(h.total)))
			if rank < 1 {
				rank = 1
			}
			if seen < rank {
				break
			}
			v := bucketLow(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			out[next] = v
			next++
		}
	}
	for i := next; i < len(qs); i++ {
		out[i] = h.max
	}
}

func (h *denseHistogram) Merge(o *denseHistogram) {
	for i, c := range o.counts {
		h.counts[i] += c
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

func (h *denseHistogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}

// fuzzValue decodes one value from three bytes. The top two bits of b0
// pick the region, so a corpus can aim at each one; the low six bits
// are an exponent e, and b1, b2 a 16-bit payload m:
//
//	0: m-1024, the exact region and the non-positive values Record clamps;
//	1: the octave edge 2^e, offset by b1 as a signed byte;
//	2: a value inside octave e, its top mantissa bits from m;
//	3: a value past the last bucket, at least 2^48-2^16.
func fuzzValue(b0, b1, b2 byte) int64 {
	m := int64(b1)<<8 | int64(b2)
	e := uint(b0 & 63)
	switch b0 >> 6 {
	case 0:
		return m - 1024
	case 1:
		return int64(1)<<e + int64(int8(b1))
	case 2:
		if e < 16 {
			return int64(1)<<e | m&(int64(1)<<e-1)
		}
		return int64(1)<<e | m<<(e-16)
	default:
		return math.MaxInt64>>(b0&15) - m
	}
}

// fuzzSpan encodes one region-kind value per exponent in [lo, hi], each
// with payload m.
func fuzzSpan(kind byte, lo, hi int, m uint16) []byte {
	var b []byte
	for e := lo; e <= hi; e++ {
		b = append(b, kind<<6|byte(e), byte(m>>8), byte(m))
	}
	return b
}

func recordBoth(h *Histogram, d *denseHistogram, data []byte) {
	for ; len(data) >= 3; data = data[3:] {
		v := fuzzValue(data[0], data[1], data[2])
		h.Record(v)
		d.Record(v)
	}
}

// requireSame fails unless h and d report the same summary, quantile at
// q and ladder.
func requireSame(t *testing.T, stage string, h *Histogram, d *denseHistogram, q float64) {
	t.Helper()
	if h.Count() != d.Count() || h.Min() != d.Min() || h.Max() != d.Max() ||
		math.Float64bits(h.Mean()) != math.Float64bits(d.Mean()) {
		t.Fatalf("%s: sparse n=%d min=%d max=%d mean=%v, dense n=%d min=%d max=%d mean=%v", stage,
			h.Count(), h.Min(), h.Max(), h.Mean(), d.Count(), d.Min(), d.Max(), d.Mean())
	}
	for _, x := range []float64{q, 0, 0.5, 1} {
		if got, want := h.Quantile(x), d.Quantile(x); got != want {
			t.Fatalf("%s: Quantile(%v) = %d, dense %d", stage, x, got, want)
		}
	}
	var got, want [len(LadderNines)]int64
	h.Quantiles(LadderNines[:], got[:])
	d.Quantiles(LadderNines[:], want[:])
	if got != want {
		t.Fatalf("%s: Quantiles(LadderNines) = %v, dense %v", stage, got, want)
	}
	var one, oneWant [1]int64
	h.Quantiles([]float64{q}, one[:])
	d.Quantiles([]float64{q}, oneWant[:])
	if one != oneWant {
		t.Fatalf("%s: Quantiles(%v) = %v, dense %v", stage, q, one, oneWant)
	}
}

// FuzzHistogramMatchesDense records the same values into the sparse
// Histogram and the dense reference and requires the two to agree. op
// picks what follows recording xs: bit 0 resets both and reuses them
// on the back half of xs, bit 1 merges in a histogram of ys, bit 2
// merges each histogram into itself, bit 3 records ys again after the
// merge (so a chunk shared between the merged histograms would show).
// The committed corpus under testdata/fuzz makes plain `go test` replay
// it; the nightly workflow fuzzes it for new inputs.
func FuzzHistogramMatchesDense(f *testing.F) {
	low := fuzzSpan(0, 0, 0, 0)                       // 0: clamped to 1
	low = append(low, fuzzSpan(0, 0, 0, 1024+255)...) // top of the exact region
	low = append(low, fuzzSpan(1, 0, 20, 0xff00)...)  // 2^e - 1 (b1 = -1)
	low = append(low, fuzzSpan(1, 0, 20, 0x0000)...)  // 2^e
	edges := append(fuzzSpan(1, 0, 63, 0x0100), fuzzSpan(1, 40, 47, 0x8000)...)
	inner := fuzzSpan(2, 8, 43, 0xbeef)
	past := fuzzSpan(3, 0, 15, 0x1234)
	f.Add(low, []byte(nil), 0.5, uint8(0))
	f.Add(edges, []byte(nil), 0.999, uint8(0))
	f.Add(inner, past, 0.99, uint8(2))                       // merge, mostly disjoint
	f.Add(low, inner, 0.9999, uint8(2|8))                    // merge, disjoint
	f.Add(inner, inner, 0.25, uint8(2|8))                    // merge, overlapping
	f.Add(append(low, past...), edges, 0.75, uint8(1|2|4|8)) // reset, reuse, merge, self-merge
	f.Add([]byte(nil), []byte(nil), 0.5, uint8(1|2|4))       // all empty
	f.Fuzz(func(t *testing.T, xs, ys []byte, q float64, op uint8) {
		h, d := NewHistogram(), newDenseHistogram()
		recordBoth(h, d, xs)
		requireSame(t, "recorded", h, d, q)
		if op&1 != 0 {
			h.Reset()
			d.Reset()
			if !reflect.DeepEqual(h, NewHistogram()) {
				t.Fatal("Reset did not restore the constructed state")
			}
			requireSame(t, "reset", h, d, q)
			recordBoth(h, d, xs[len(xs)/2:])
			requireSame(t, "reused", h, d, q)
		}
		if op&2 != 0 {
			oh, od := NewHistogram(), newDenseHistogram()
			recordBoth(oh, od, ys)
			h.Merge(oh)
			d.Merge(od)
			requireSame(t, "merged", h, d, q)
			if op&8 != 0 {
				recordBoth(h, d, ys)
				requireSame(t, "recorded after merge", h, d, q)
				requireSame(t, "merge source", oh, od, q)
			}
		}
		if op&4 != 0 {
			h.Merge(h)
			d.Merge(d)
			requireSame(t, "self-merged", h, d, q)
		}
	})
}
