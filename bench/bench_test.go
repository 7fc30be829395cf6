package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// declared is the part of BENCHMARK.json the benchmark's output must match.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitsOf maps each metric of a JSON record to its unit.
func unitsOf(res result) map[string]string {
	out := map[string]string{}
	for name, v := range res.Metrics {
		out[name] = v.Unit
	}
	return out
}

// compareUnits reports every metric emitted but not declared, declared
// but not emitted, or emitted with another unit.
func compareUnits(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	for name, unit := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: %s is emitted but not declared in BENCHMARK.json", what, name)
		} else if w != unit {
			t.Errorf("%s: %s is emitted in %s, declared in %s", what, name, unit, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: %s is declared in BENCHMARK.json but not emitted", what, name)
		}
	}
}

// tiny sizes each workload for the tests; RAID-5 8+1 needs 9 SSDs and
// DemoHedgePlan names members up to 8.
var tiny = map[string]scale{
	"closed-default":    {SSDs: 8, Runtime: 50 * sim.Millisecond, RefOps: 1000},
	"ull-polling":       {SSDs: 8, Runtime: 20 * sim.Millisecond, RefOps: 1000},
	"open-mux-10k":      {SSDs: 2, Runtime: 50 * sim.Millisecond, Tenants: 200, RefOps: 1000},
	"raid-hedge-faults": {SSDs: 16, Runtime: 50 * sim.Millisecond, RefOps: 1000},
}

// TestWorkloadsAtTinyScale runs every workload definition twice and
// traced once at a tiny scale, checks the run's outputs, and checks that
// the metrics it emits are exactly the ones BENCHMARK.json declares.
func TestWorkloadsAtTinyScale(t *testing.T) {
	t.Parallel()
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workloads), len(workloads))
	}
	wantE2E, wantLayer := map[string]string{}, map[string]string{}
	for _, m := range d.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	probes := runProbes(1, 2000)
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %+v, want %q with its why", i, d.Workloads[i], w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, at most 200", w.name, len(w.why))
		}
		sc, ok := tiny[w.name]
		if !ok {
			t.Fatalf("%s: no tiny scale", w.name)
		}
		timing := []rep{runRep(w, 1, sc, false), runRep(w, 1, sc, false)}
		traced := runRep(w, 1, sc, true)
		r := summarize(w, 1, timing[0], timing, &traced, probes)
		for _, c := range r.Checks {
			if !c.OK && c.Name != "tail-samples" { // a tiny run has too few samples
				t.Errorf("%s: check %s failed: %s", w.name, c.Name, c.Detail)
			}
		}
		compareUnits(t, w.name+" end-to-end", unitsOf(r.record(false)), wantE2E)
		compareUnits(t, w.name+" per-layer", unitsOf(r.record(true)), wantLayer)
		for name := range unitsOf(r.record(true)) {
			if !metricName.MatchString(name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", name)
			}
		}
	}
}

// TestClosedDefaultIsTheHeadlineRow pins the closed-default definition
// to the committed headline-64ssd row of BENCH_engine.json.
func TestClosedDefaultIsTheHeadlineRow(t *testing.T) {
	t.Parallel()
	w, _ := lookup("closed-default")
	r := runRep(w, 2018, scale{SSDs: 64, Runtime: 500 * sim.Millisecond, RefOps: 1000}, false)
	if r.Sim.Events != 3_134_868 || r.Sim.Attempted != 511_279 {
		t.Errorf("closed-default at 64 SSDs/500 ms: %d events, %d I/Os; headline-64ssd has 3134868, 511279",
			r.Sim.Events, r.Sim.Attempted)
	}
}

// TestInterpolatedStaysInItsBucket checks the rank interpolation: it
// never reports below the histogram's own quantile or at the next
// bucket, and it rises with the quantile inside one bucket.
func TestInterpolatedStaysInItsBucket(t *testing.T) {
	h := stats.NewHistogram()
	for v := int64(0); v < 10_000; v++ {
		h.Record(24_200 + v%50) // one bucket: a ULL-like point mass
		h.Record(16_900 + v%30)
	}
	h.Record(500_000)
	var prev float64
	for _, q := range []float64{0.5, 0.6, 0.9, 0.99, 0.9999} {
		got := interpolated(h, q)
		low := h.Quantile(q)
		if got < float64(low) || got >= float64(bucketEnd(low)) {
			t.Errorf("q%v: %v outside [%d, %d)", q, got, low, bucketEnd(low))
		}
		if got < prev {
			t.Errorf("q%v: %v below the previous quantile %v", q, got, prev)
		}
		prev = got
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "hit", "--trace", "0", "--seed", "1", "-trace"})
	want := []string{"--workload", "hit", "--trace=0", "--seed", "1", "-trace"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %q, want %q", got, want)
	}
}
