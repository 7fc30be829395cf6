package lint

import (
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// selfCheck is the one whole-module afalint pass the self-check tests
// share: every rule of every family, filtered through the accepted-debt
// ledger lint.baseline at the repo root, the same pass CI runs. Because
// these tests are part of the tier-1 suite (`go test ./...`), the
// contracts are enforced on every verification run, not only when
// someone remembers to invoke the CLI: a time.Now() in internal/sim, an
// unsorted map range in internal/trace, a new &T{} in a hot-set
// function, or a Reset() that skips a field fails with the exact
// file:line. The module is loaded and analysed once; each test below
// checks its own slice of the result, so a finding is reported by
// exactly one of them.
type selfCheck struct {
	err        error
	pkgs       []*Package
	analysis   time.Duration
	ledger     *Baseline
	kept       []Finding
	suppressed int
	stale      []string
}

var (
	selfCheckOnce   sync.Once
	selfCheckResult selfCheck
)

// repoSelfCheck runs the shared pass on first use and returns it,
// failing the calling test if the module or the ledger cannot be read.
func repoSelfCheck(t *testing.T) *selfCheck {
	t.Helper()
	selfCheckOnce.Do(func() {
		sc := &selfCheckResult
		root, modPath, err := FindModule(".")
		if err != nil {
			sc.err = err
			return
		}
		if sc.pkgs, sc.err = NewLoader(root, modPath).LoadModule(); sc.err != nil {
			return
		}
		// Loading dominates and is timed separately by the test
		// framework, so the budget brackets only the analysis.
		start := time.Now() //afalint:allow wallclock -- timing guard on the analysis pass, not sim logic
		findings := Run(sc.pkgs, Rules())
		sc.analysis = time.Since(start) //afalint:allow wallclock -- timing guard on the analysis pass, not sim logic
		data, err := os.ReadFile(filepath.Join(root, "lint.baseline"))
		if err != nil {
			sc.err = err
			return
		}
		if sc.ledger, sc.err = ParseBaseline(data); sc.err != nil {
			return
		}
		sc.kept, sc.suppressed, sc.stale = sc.ledger.Filter(findings, root, sc.pkgs)
	})
	if selfCheckResult.err != nil {
		t.Fatalf("afalint self-check: %v", selfCheckResult.err)
	}
	return &selfCheckResult
}

// reportFamily fails t on each finding of the rules in fam that the
// ledger does not cover.
func reportFamily(t *testing.T, sc *selfCheck, fam []Rule, remedy string) {
	t.Helper()
	names := map[string]bool{}
	for _, r := range fam {
		names[r.Name()] = true
	}
	n := 0
	for _, f := range sc.kept {
		if names[f.Rule] {
			t.Errorf("%s", f)
			n++
		}
	}
	if n > 0 {
		t.Errorf("afalint: %d finding(s); %s", n, remedy)
	}
}

// TestRepoPassesAfalint checks what belongs to the pass as a whole: the
// loader sees the tree and type-checks it, the analysis stays inside
// its budget, and the ledger holds no stale line.
func TestRepoPassesAfalint(t *testing.T) {
	sc := repoSelfCheck(t)
	if len(sc.pkgs) < 15 {
		t.Fatalf("only %d packages discovered; loader is missing the tree", len(sc.pkgs))
	}
	for _, p := range sc.pkgs {
		// A package that fails to type-check would silently disable the
		// type-driven rules (maporder, floatcompare, the hot-set and
		// field-graph analyses) for its files, so type errors are
		// themselves contract violations.
		for _, terr := range p.TypeErrors {
			t.Errorf("%s: type error: %v", p.Path, terr)
		}
	}
	// The whole-program pass (call graph, hot set, field graph, and all
	// nineteen rules) must stay fast enough to sit in the inner
	// edit-test loop: 10s of analysis time on top of loading.
	t.Logf("whole-program analysis over %d packages took %v", len(sc.pkgs), sc.analysis)
	if sc.analysis > 10*time.Second {
		t.Errorf("whole-program analysis took %v; the self-check budget is 10s (DESIGN.md §5)", sc.analysis)
	}
	// The ledger is held to the same standard as the code: a line no
	// finding matches is stale and fails until deleted.
	t.Logf("%d finding(s) covered by lint.baseline", sc.suppressed)
	for _, s := range sc.stale {
		t.Errorf("stale lint.baseline entry (fixed? delete it): %s", s)
	}
}

// TestHotSetSpansModule is the hot-set census over the whole module:
// the set follows calls across package boundaries, so the FTL, the
// PCIe fabric and the health tracker hold hot functions, and a device
// completion reaches the kernel's receiver through nvme.Receiver.
func TestHotSetSpansModule(t *testing.T) {
	sc := repoSelfCheck(t)
	hot := map[string]int{}
	var complete *types.Func
	for _, p := range sc.pkgs {
		for _, h := range p.hotFuncs() {
			hot[p.Types.Name()]++
			if funcDisplayName(h.fn) == "nvme.(ioReq).complete" {
				complete = h.fn
			}
		}
	}
	t.Logf("hot functions per package: %v", hot)
	for _, name := range []string{"nand", "pcie", "health"} {
		if hot[name] == 0 {
			t.Errorf("no hot function in %s", name)
		}
	}
	if complete == nil {
		t.Fatal("nvme.(ioReq).complete is not hot")
	}
	for _, e := range sc.pkgs[0].prog.graph.callees(complete) {
		if funcDisplayName(e.callee) == "kernel.(kioReq).OnResult" {
			return
		}
	}
	t.Error("no call-graph edge nvme.(ioReq).complete → kernel.(kioReq).OnResult")
}

// TestRepoObeysDeterminismContract fails on any determinism finding —
// no wall clock, no global rand, no map-order dependence, no
// concurrency or float equality in the sim core. The family may carry
// no debt at all: its findings are fixed or annotated //afalint:allow
// in place, never recorded in lint.baseline.
func TestRepoObeysDeterminismContract(t *testing.T) {
	sc := repoSelfCheck(t)
	for _, line := range sc.ledger.order {
		for _, r := range determinismRules() {
			if strings.HasSuffix(line, " ["+r.Name()+"]") {
				t.Errorf("lint.baseline records a determinism debt; fix the site or annotate it "+
					"//afalint:allow %s -- <reason> instead: %s", r.Name(), line)
			}
		}
	}
	reportFamily(t, sc, determinismRules(),
		`fix the site or annotate it with //afalint:allow <rule> -- <reason> (DESIGN.md §5, "Determinism contract")`)
}

// TestRepoObeysPerfContract fails on a hot-set finding — an allocation,
// interface conversion, defer, growing append or map access reachable
// from a per-I/O entry point — that lint.baseline does not record.
func TestRepoObeysPerfContract(t *testing.T) {
	reportFamily(t, repoSelfCheck(t), perfRules(),
		"fix the site or annotate it //afalint:allow <rule> -- <reason> (DESIGN.md §8)")
}

// TestRepoObeysStateContract fails on a state-integrity finding that
// lint.baseline does not record: a pooled type whose recycle path
// misses a field, a Reset() that skips one, a partial Snapshot(), a
// package-level var in sim-core, or a use-after-release.
func TestRepoObeysStateContract(t *testing.T) {
	reportFamily(t, repoSelfCheck(t), stateRules(),
		"fix the site, mark the field //afalint:sticky -- <reason>, "+
			"or annotate //afalint:allow <rule> -- <reason> (DESIGN.md §10)")
}
