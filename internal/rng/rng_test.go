package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds matched %d/100 draws", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("zero-seeded stream produced only %d distinct values", len(seen))
	}
}

func TestDeriveOrderIndependent(t *testing.T) {
	a := New(7)
	a.Uint64() // burn some draws
	a.Uint64()
	d1 := a.Derive("ssd3")

	b := New(7)
	d2 := b.Derive("ssd3")

	for i := 0; i < 100; i++ {
		if d1.Uint64() != d2.Uint64() {
			t.Fatal("Derive depends on parent draw position")
		}
	}
}

func TestDeriveLabelsIndependent(t *testing.T) {
	p := New(7)
	d1 := p.Derive("ssd0")
	d2 := p.Derive("ssd1")
	same := 0
	for i := 0; i < 100; i++ {
		if d1.Uint64() == d2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("derived streams matched %d/100 draws", same)
	}
}

func TestNewLabeledMatchesDerive(t *testing.T) {
	a := New(9).Derive("irqbalance")
	b := NewLabeled(9, "irqbalance")
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("NewLabeled != Derive for same (seed, label)")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(12)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[r.Intn(10)]++
	}
	for v, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("Intn(10) value %d drawn %d/100000 times; badly non-uniform", v, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestInt63n(t *testing.T) {
	r := New(13)
	for i := 0; i < 10000; i++ {
		v := r.Int63n(1 << 40)
		if v < 0 || v >= 1<<40 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := New(14)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(50)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-50) > 1 {
		t.Fatalf("Exp(50) sample mean = %v, want ≈50", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(15)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(10, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.1 {
		t.Fatalf("Normal mean = %v, want ≈10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.1 {
		t.Fatalf("Normal sigma = %v, want ≈3", math.Sqrt(variance))
	}
}

func TestLogNormalMeanTargetsMean(t *testing.T) {
	r := New(16)
	const n = 400000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.LogNormalMean(2000, 0.5)
		if v <= 0 {
			t.Fatalf("LogNormalMean returned non-positive %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-2000)/2000 > 0.02 {
		t.Fatalf("LogNormalMean(2000) sample mean = %v, want within 2%%", mean)
	}
}

func TestBool(t *testing.T) {
	r := New(19)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	if hits < 23500 || hits > 26500 {
		t.Fatalf("Bool(0.25) hit %d/%d", hits, n)
	}
}

func TestUniform(t *testing.T) {
	r := New(20)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(5, 8)
		if v < 5 || v >= 8 {
			t.Fatalf("Uniform(5,8) = %v out of range", v)
		}
	}
}

// TestStdNormalsMatchNormal holds every StdNormals batch to the
// successive Normal(mean, sigma) draws of a twin stream, bit for bit,
// and leaves both streams at the same position. The lengths straddle
// the stack chunk, and one stream starts in a state whose first
// uniform is 0, so the u == 0 retry is taken inside a batch.
func TestStdNormalsMatchNormal(t *testing.T) {
	zeroFirst := Stream{s: [4]uint64{0x1234, 0, 0x5678, 0x9abc}}
	if z := zeroFirst; z.Float64() != 0 {
		t.Fatal("fixture state does not draw u == 0 first")
	}
	for _, st := range []struct {
		name  string
		start Stream
	}{{"seed 21", *New(21)}, {"u == 0 first", zeroFirst}} {
		name, a, b := st.name, st.start, st.start
		for _, n := range []int{1, 7, stdNormalChunk, stdNormalChunk + 1, 3*stdNormalChunk + 5, 0, 2} {
			z := make([]float64, n)
			a.StdNormals(z)
			for i, zi := range z {
				for _, ms := range [][2]float64{{0, 1}, {9.5, 0.08}} {
					c := b // Normal(mean, sigma) consumes the same uniforms whatever the parameters
					want := c.Normal(ms[0], ms[1])
					if got := ms[0] + float64(ms[1]*zi); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s, batch of %d, draw %d: mean %v + sigma %v * z = %v, Normal = %v",
							name, n, i, ms[0], ms[1], got, want)
					}
				}
				b.Normal(0, 1)
			}
			if a.s != b.s {
				t.Fatalf("%s: after a batch of %d the streams sit at different positions", name, n)
			}
		}
	}
}
