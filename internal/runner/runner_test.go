package runner

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

// TestMapMatchesSerial is the package's contract in miniature: a
// non-trivial worker (a tiny discrete-event simulation per job, the
// same shape the experiment layer submits) must produce byte-identical
// results at every pool width.
func TestMapMatchesSerial(t *testing.T) {
	specs := make([]uint64, 23)
	for i := range specs {
		specs[i] = 1000 + uint64(i)
	}
	// Each job runs its own engine and rng stream — nothing shared.
	worker := func(i int, seed uint64) string {
		eng := sim.NewEngine()
		r := rng.NewLabeled(seed, "runner-test")
		var total sim.Duration
		for k := 0; k < 50; k++ {
			d := sim.Duration(r.Intn(1000) + 1)
			eng.Schedule(d, func() { total += d })
			eng.Run()
		}
		return fmt.Sprintf("job%d seed%d total%d now%d", i, seed, total, eng.Now())
	}
	want := Map(Options{Parallel: 1}, specs, worker)
	for _, p := range []int{0, 2, 8, 64} {
		got := Map(Options{Parallel: p}, specs, worker)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Parallel=%d result[%d] = %q, serial reference %q", p, i, got[i], want[i])
			}
		}
	}
}

// TestMapSubmissionOrder pins the merge rule: results land at their
// submission index even when later jobs finish first.
func TestMapSubmissionOrder(t *testing.T) {
	// Jobs signal each other so job 0 provably finishes last: it blocks
	// until every other job has completed. Needs Parallel >= n so no
	// worker is starved.
	const n = 8
	var done sync.WaitGroup
	done.Add(n - 1)
	out := Map(Options{Parallel: n}, []int{0, 1, 2, 3, 4, 5, 6, 7}, func(i, v int) int {
		if i == 0 {
			done.Wait()
		} else {
			done.Done()
		}
		return v * 10
	})
	for i, v := range out {
		if v != i*10 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*10)
		}
	}
}

// TestMapBoundsConcurrency verifies the pool width is respected: with
// Parallel=2, no more than two jobs are ever in flight.
func TestMapBoundsConcurrency(t *testing.T) {
	var inFlight, peak atomic.Int64
	Map(Options{Parallel: 2}, make([]struct{}, 32), func(i int, _ struct{}) int {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		for k := 0; k < 1000; k++ { // small busy phase to let overlap show
			_ = k * k
		}
		inFlight.Add(-1)
		return i
	})
	if p := peak.Load(); p > 2 {
		t.Fatalf("peak in-flight jobs %d, want <= 2", p)
	}
}

// TestMapPanicPropagation re-raises the lowest-indexed job panic with
// its original value, matching what a serial loop would surface first.
func TestMapPanicPropagation(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("Parallel=%d: no panic propagated", parallel)
				}
				if s, ok := r.(string); !ok || s != "boom 2" {
					t.Fatalf("Parallel=%d: recovered %v, want lowest-index panic \"boom 2\"", parallel, r)
				}
			}()
			Map(Options{Parallel: parallel}, []int{0, 1, 2, 3, 4, 5}, func(i, v int) int {
				if i >= 2 && i%2 == 0 {
					panic(fmt.Sprintf("boom %d", i))
				}
				return v
			})
		}()
	}
}

// TestMapEmptyAndSingle covers the degenerate shapes experiments hand
// us: empty spec lists and one-job batches.
func TestMapEmptyAndSingle(t *testing.T) {
	if out := Map(Options{}, nil, func(i, v int) int { return v }); len(out) != 0 {
		t.Fatalf("empty specs produced %v", out)
	}
	out := Map(Options{Parallel: 8}, []int{41}, func(i, v int) int { return v + 1 })
	if len(out) != 1 || out[0] != 42 {
		t.Fatalf("single job produced %v", out)
	}
}

// TestWorkers pins the pool-width resolution: 0 means DefaultParallel,
// and the pool never exceeds the job count.
func TestWorkers(t *testing.T) {
	if got := (Options{}).workers(100); got != DefaultParallel() {
		t.Errorf("Options{}.workers(100) = %d, want DefaultParallel %d", got, DefaultParallel())
	}
	if got := (Options{Parallel: 16}).workers(3); got != 3 {
		t.Errorf("workers capped at job count: got %d, want 3", got)
	}
	if got := (Options{Parallel: -5}).workers(2); got != 2 && got != DefaultParallel() {
		t.Errorf("negative Parallel resolved to %d", got)
	}
}

// TestSeeds pins the sweep-seed derivation rule the CLI documents:
// sequential from base, so sweep run i is reproducible with -seed.
func TestSeeds(t *testing.T) {
	s := Seeds(2018, 4)
	want := []uint64{2018, 2019, 2020, 2021}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("Seeds(2018, 4) = %v, want %v", s, want)
		}
	}
	if len(Seeds(7, 0)) != 0 {
		t.Fatal("Seeds(_, 0) must be empty")
	}
}
