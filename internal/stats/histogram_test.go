package stats

import (
	"math"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/rng"
)

func TestBucketRoundTrip(t *testing.T) {
	// bucketLow(bucketIndex(v)) <= v, within the bucket's relative error.
	for _, v := range []int64{1, 2, 255, 256, 257, 511, 512, 1000, 25000, 30000, 5000000, 1 << 40} {
		idx := bucketIndex(v)
		low := bucketLow(idx)
		if low > v {
			t.Fatalf("bucketLow(%d)=%d > v=%d", idx, low, v)
		}
		relErr := float64(v-low) / float64(v)
		if relErr > 1.0/float64(halfBuckets) {
			t.Fatalf("value %d: bucket low %d, relative error %v too large", v, low, relErr)
		}
	}
}

func TestBucketIndexMonotonic(t *testing.T) {
	prev := -1
	for v := int64(1); v < 1<<20; v += 7 {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex not monotonic at %d", v)
		}
		prev = idx
	}
}

func TestBucketLowsStrictlyIncrease(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < numBuckets; i++ {
		low := bucketLow(i)
		if low <= prev {
			t.Fatalf("bucketLow(%d)=%d <= bucketLow(%d)=%d", i, low, i-1, prev)
		}
		prev = low
	}
}

func TestEmptyHistogram(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram has nonzero summary")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
}

func TestExactStatistics(t *testing.T) {
	h := NewHistogram()
	vals := []int64{10, 20, 30, 40, 50}
	for _, v := range vals {
		h.Record(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 30 {
		t.Fatalf("Mean = %v, want 30", h.Mean())
	}
	if h.Min() != 10 || h.Max() != 50 {
		t.Fatalf("Min/Max = %d/%d", h.Min(), h.Max())
	}
}

func TestQuantileExactRegion(t *testing.T) {
	h := NewHistogram()
	for v := int64(1); v <= 100; v++ {
		h.Record(v)
	}
	// Values < 256 are exact.
	cases := []struct {
		q    float64
		want int64
	}{{0.01, 1}, {0.5, 50}, {0.99, 99}, {1.0, 100}}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestQuantileRelativeError(t *testing.T) {
	h := NewHistogram()
	r := rng.New(1)
	vals := make([]int64, 0, 100000)
	for i := 0; i < 100000; i++ {
		v := int64(r.Exp(30000)) + 25000 // latency-like
		vals = append(vals, v)
		h.Record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 0.9999} {
		exact := vals[int(math.Ceil(q*float64(len(vals))))-1]
		got := h.Quantile(q)
		relErr := math.Abs(float64(got-exact)) / float64(exact)
		if relErr > 0.01 {
			t.Errorf("Quantile(%v) = %d, exact %d, rel err %v > 1%%", q, got, exact, relErr)
		}
	}
}

// Quantiles' one scan answers every q as its own Quantile call does, on
// empty, one-value and spread histograms: edge quantiles, repeated ones,
// several landing in one bucket, and ranks at both ends.
func TestQuantilesMatchQuantile(t *testing.T) {
	spread := NewHistogram()
	r := rng.New(7)
	for i := 0; i < 20000; i++ {
		spread.Record(int64(r.Exp(30000)) + 25000)
	}
	one := NewHistogram()
	one.Record(4242)
	runs := []struct {
		name string
		h    *Histogram
	}{{"empty", NewHistogram()}, {"one value", one}, {"spread", spread}}
	qsets := [][]float64{
		LadderNines[:],
		{-1, 0, 0.25, 0.5, 0.5, 0.75, 1, 2},
		{1e-9, 0.001, 0.5, 0.9, 0.99, 0.999, 0.99999, 0.9999999999},
		{0.3},
		{0, 1},
		{},
	}
	for _, run := range runs {
		for _, qs := range qsets {
			got := make([]int64, len(qs))
			run.h.Quantiles(qs, got)
			for i, q := range qs {
				if want := run.h.Quantile(q); got[i] != want {
					t.Errorf("%s: Quantiles(%v)[%d] = %d, Quantile(%v) = %d", run.name, qs, i, got[i], q, want)
				}
			}
		}
	}
}

func TestQuantileOneIsExactMax(t *testing.T) {
	h := NewHistogram()
	h.Record(123456789)
	h.Record(42)
	if h.Quantile(1) != 123456789 {
		t.Fatalf("Quantile(1) = %d, want exact max", h.Quantile(1))
	}
}

func TestRecordClampsNonPositive(t *testing.T) {
	h := NewHistogram()
	h.Record(0)
	h.Record(-5)
	if h.Count() != 2 || h.Min() != 1 {
		t.Fatalf("clamping failed: count=%d min=%d", h.Count(), h.Min())
	}
}

func TestRecordHugeValueClampsToLastBucket(t *testing.T) {
	h := NewHistogram()
	h.Record(math.MaxInt64)
	if h.Count() != 1 {
		t.Fatal("huge value not recorded")
	}
	if h.Max() != math.MaxInt64 {
		t.Fatal("exact max lost")
	}
	if h.Quantile(0.5) <= 0 {
		t.Fatal("quantile of huge value not positive")
	}
}

func TestMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for v := int64(1); v <= 50; v++ {
		a.Record(v * 100)
	}
	for v := int64(51); v <= 100; v++ {
		b.Record(v * 100)
	}
	a.Merge(b)
	if a.Count() != 100 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Min() != 100 || a.Max() != 10000 {
		t.Fatalf("merged min/max = %d/%d", a.Min(), a.Max())
	}
	if got := a.Quantile(0.5); math.Abs(float64(got)-5000) > 60 {
		t.Fatalf("merged median = %d, want ≈5000", got)
	}
}

func TestMergeEmpty(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Record(7)
	a.Merge(b)
	if a.Count() != 1 || a.Min() != 7 {
		t.Fatal("merging an empty histogram changed contents")
	}
}

func TestReset(t *testing.T) {
	h := NewHistogram()
	h.Record(1000)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 || h.Quantile(0.9) != 0 {
		t.Fatal("Reset did not clear histogram")
	}
	h.Record(5)
	if h.Min() != 5 {
		t.Fatal("histogram unusable after Reset")
	}
}

// Property: quantiles are monotonic in q and bracketed by [min, max].
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range raw {
			h.Record(int64(v) + 1)
		}
		prev := int64(0)
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
			v := h.Quantile(q)
			if v < prev || v < h.Min() || v > h.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: merging two histograms is equivalent to recording the union.
func TestPropertyMergeEquivalence(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a, b, u := NewHistogram(), NewHistogram(), NewHistogram()
		for _, v := range xs {
			a.Record(int64(v) + 1)
			u.Record(int64(v) + 1)
		}
		for _, v := range ys {
			b.Record(int64(v) + 1)
			u.Record(int64(v) + 1)
		}
		a.Merge(b)
		if a.Count() != u.Count() || a.Min() != u.Min() || a.Max() != u.Max() {
			return false
		}
		for _, q := range []float64{0.25, 0.5, 0.75, 0.99} {
			if a.Quantile(q) != u.Quantile(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram()
	h.Record(100)
	if h.String() == "" {
		t.Fatal("empty String()")
	}
}

// bytesPerRun reports the heap bytes f allocates per call, averaged over
// runs calls, on one P as testing.AllocsPerRun measures. Another
// goroutine allocating during a measurement (a leftover of an earlier
// test, say) can only add bytes, so the least of three measurements is
// f's own.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	least := uint64(math.MaxUint64)
	for trial := 0; trial < 3; trial++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/uint64(runs))
	}
	return least
}

// TestHistogramFootprint pins what sparse storage costs: a new histogram
// allocates its header and no buckets; values within any 8 consecutive
// octaves allocate exactly one 8 KB slab; a ninth octave a second; and
// a Record into a chunk already touched allocates nothing.
func TestHistogramFootprint(t *testing.T) {
	var keep *Histogram
	newOnly := func() { keep = NewHistogram() }
	if n := testing.AllocsPerRun(100, newOnly); n != 1 {
		t.Fatalf("NewHistogram: %v allocs, want 1 (the header)", n)
	}
	header := bytesPerRun(100, newOnly)
	// The header is rounded up to its size class, which wastes < 1/8.
	if size := uint64(unsafe.Sizeof(Histogram{})); header < size || header > size+size/8 {
		t.Fatalf("NewHistogram: %d B, want the %d B header rounded to its size class", header, size)
	}
	const slab = slabChunks * chunkSize * 8
	if slab != 8192 {
		t.Fatalf("slab = %d B, want 8 KB", slab)
	}
	if numChunks*chunkSize != numBuckets {
		t.Fatalf("%d chunks of %d do not cover %d buckets", numChunks, chunkSize, numBuckets)
	}
	// One value per bucket of [2^lo, 2^(lo+octaves)), plus its top value.
	span := func(lo, octaves int) []int64 {
		var vs []int64
		top := int64(1)<<(lo+octaves) - 1
		for i := bucketIndex(int64(1) << lo); i < numBuckets && bucketLow(i) <= top; i++ {
			vs = append(vs, bucketLow(i))
		}
		return append(vs, top)
	}
	for _, c := range []struct {
		lo, octaves int
		slabs       uint64
	}{
		{0, 8, 1}, {4, 8, 1}, {8, 8, 1}, {13, 8, 1}, {20, 8, 1}, {36, 8, 1},
		{8, 9, 2}, {0, 44, 5},
	} {
		vs := span(c.lo, c.octaves)
		record := func() {
			h := NewHistogram()
			for _, v := range vs {
				h.Record(v)
			}
			keep = h
		}
		if n := testing.AllocsPerRun(20, record); n != float64(1+c.slabs) {
			t.Errorf("[2^%d, 2^%d): %v allocs, want %d slab(s) plus the header", c.lo, c.lo+c.octaves, n, c.slabs)
		}
		if b := bytesPerRun(20, record); b != header+c.slabs*slab {
			t.Errorf("[2^%d, 2^%d): %d B, want %d slab(s) plus the header, %d B", c.lo, c.lo+c.octaves, b, c.slabs, header+c.slabs*slab)
		}
	}

	h := NewHistogram()
	h.Record(60_000)
	v := int64(60_000)
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		v ^= 1 << 8 // 60,000 and 60,256 are neighbouring buckets of one chunk
	}); n != 0 {
		t.Fatalf("Record into a touched chunk: %v allocs, want 0", n)
	}
	_ = keep
}
