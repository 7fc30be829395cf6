package pts

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCheckFlatSeriesIsSteady(t *testing.T) {
	steady, exc, slope := Check([]float64{100, 100, 100, 100, 100})
	if !steady {
		t.Fatalf("flat series not steady (exc=%v slope=%v)", exc, slope)
	}
	if exc != 0 || slope != 0 {
		t.Fatalf("flat series exc=%v slope=%v", exc, slope)
	}
}

func TestCheckTooFewRounds(t *testing.T) {
	steady, exc, _ := Check([]float64{1, 2, 3})
	if steady || !math.IsNaN(exc) {
		t.Fatal("short series must not qualify")
	}
}

func TestCheckExcursionViolation(t *testing.T) {
	// 25% excursion around avg≈100.
	steady, exc, _ := Check([]float64{90, 100, 100, 100, 115})
	if steady {
		t.Fatalf("25%% excursion passed (exc=%v)", exc)
	}
	if exc < 0.2 {
		t.Fatalf("excursion computed as %v", exc)
	}
}

func TestCheckSlopeViolation(t *testing.T) {
	// Monotone drift: excursion 16% (passes) but slope rise 16% (fails).
	steady, exc, slope := Check([]float64{92, 96, 100, 104, 108})
	if exc > 0.20 {
		t.Fatalf("test series wrong: excursion %v", exc)
	}
	if steady {
		t.Fatalf("drifting series passed (slope=%v)", slope)
	}
	if slope <= 0.10 {
		t.Fatalf("slope computed as %v", slope)
	}
}

func TestCheckUsesOnlyLastWindow(t *testing.T) {
	rounds := []float64{1000, 10, 3000, 100, 100, 100, 100, 100}
	steady, _, _ := Check(rounds)
	if !steady {
		t.Fatal("early chaos must not matter once the window is flat")
	}
}

func TestRunStopsAtSteadyState(t *testing.T) {
	// A decaying series that flattens: 200, 150, 120, 104, 100, 100, ...
	series := []float64{200, 150, 120, 104, 100, 100, 100, 100, 100, 100}
	res := Run(25, func(round int) float64 {
		return series[round-1]
	})
	if !res.Steady {
		t.Fatalf("never steady: %+v", res)
	}
	if res.SteadyAt < 5 || res.SteadyAt > 9 {
		t.Fatalf("steady at round %d", res.SteadyAt)
	}
}

func TestRunGivesUpAtMaxRounds(t *testing.T) {
	n := 0
	res := Run(8, func(round int) float64 {
		n++
		return float64(round * round) // ever-growing
	})
	if res.Steady {
		t.Fatal("diverging series declared steady")
	}
	if n != 8 || len(res.Rounds) != 8 {
		t.Fatalf("measured %d rounds", n)
	}
}

func TestRunPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("maxRounds < window accepted")
		}
	}()
	Run(3, func(int) float64 { return 1 })
}

// Property: scaling a series by a positive constant never changes the
// steady-state verdict (both criteria are relative).
func TestPropertyScaleInvariance(t *testing.T) {
	f := func(raw [5]uint8, scale uint8) bool {
		ys := make([]float64, 5)
		for i, v := range raw {
			ys[i] = float64(v) + 1
		}
		k := float64(scale)/16 + 0.5
		scaled := make([]float64, 5)
		for i, y := range ys {
			scaled[i] = y * k
		}
		a, _, _ := Check(ys)
		b, _, _ := Check(scaled)
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
