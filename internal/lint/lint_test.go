package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"testing"
)

// fixtureCases maps each fixture directory to the import path it is
// loaded under; the path is what puts the files in (or out of) each
// rule's scope.
var fixtureCases = []struct {
	dir  string
	path string // synthetic import path controlling rule scope
}{
	{"wallclock", "repro/internal/fixture"},
	{"globalrand", "repro/internal/fixture"},
	{"maporder", "repro/internal/fixture"},
	{"nogoroutine", "repro/internal/sim"},
	{"floatcompare", "repro/internal/sim"},
	// The fault injector schedules failures inside the event loop, so it
	// is bound by the same sim-core rules as the components it breaks.
	{"nogoroutine", "repro/internal/fault"},
	{"floatcompare", "repro/internal/fault"},
	{"wallclock", "repro/internal/fault"},
	{"globalrand", "repro/internal/fault"},
	// The two-tier concurrency boundary (DESIGN.md §7): a sim-core
	// package importing the orchestration tier is a finding.
	{"boundary", "repro/internal/sim"},
	{"boundary", "repro/internal/kernel"},
	// v2 whole-program rules. The reach fixtures must load as sim-core
	// (entry points are sim-core exported functions); the enum, unit, and
	// stream-ownership fixtures live above the core like their real
	// counterparts.
	{"reachwallclock", "repro/internal/sim"},
	{"reachwallclock", "repro/internal/fault"},
	{"reachrand", "repro/internal/sim"},
	{"exhaustive", "repro/internal/fixture"},
	{"simtime", "repro/internal/fixture"},
	{"rngstream", "repro/internal/fixture"},
}

// wantMarker matches expectation comments in fixtures: a finding of
// the named rule on the same line.
var wantMarker = regexp.MustCompile(`want:(\w+)`)

// fixtureLoader is the one loader every loadFixture call shares, so
// the GOROOT source importer checks each standard package once per test
// binary rather than once per fixture. A fixture is loaded from a
// directory other than its import path's, so it never enters the
// loader's package cache and cannot change what another fixture sees;
// the module packages fixtures import are checked once, as afalint
// checks them. The lint tests do not run in parallel.
var fixtureLoader = sync.OnceValues(func() (*Loader, error) {
	root, modPath, err := FindModule(".")
	if err != nil {
		return nil, err
	}
	return NewLoader(root, modPath), nil
})

// loadFixture type-checks one testdata directory under the given
// import path and fails the test on any load or type error — a fixture
// that does not compile would silently weaken the type-driven rules.
func loadFixture(t *testing.T, dir, path string) *Package {
	t.Helper()
	l, err := fixtureLoader()
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.LoadDir(filepath.Join("testdata", dir), path)
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range p.TypeErrors {
		t.Errorf("fixture type error: %v", terr)
	}
	return p
}

// expectations collects the (line, rule) pairs announced by want:
// markers in the package's comments.
func expectations(p *Package) []string {
	var out []string
	for _, f := range p.Files {
		name := filepath.Base(p.Fset.File(f.Pos()).Name())
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantMarker.FindAllStringSubmatch(c.Text, -1) {
					line := p.Fset.Position(c.Pos()).Line
					out = append(out, fmt.Sprintf("%s:%d %s", name, line, m[1]))
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestFixtures runs every rule over each fixture package and asserts
// the exact set of finding positions against the want: markers,
// covering positive, suppressed, exempt, and out-of-scope cases at
// once (a fixture must not trip any rule it has no marker for).
func TestFixtures(t *testing.T) {
	for _, c := range fixtureCases {
		t.Run(c.dir, func(t *testing.T) {
			p := loadFixture(t, c.dir, c.path)
			var got []string
			for _, f := range Run([]*Package{p}, determinismRules()) {
				got = append(got, fmt.Sprintf("%s:%d %s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Rule))
			}
			sort.Strings(got)
			want := expectations(p)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("findings mismatch\n got: %v\nwant: %v", got, want)
			}
		})
	}
}

// TestCrossPackageFixtures loads each two-package fixture with one
// loader, the entry under its synthetic path and the package it calls
// under its own module path, and runs every rule over both at once:
// the call graph must follow a static call and an interface dispatch
// across the package boundary, with the whole chain in the message.
func TestCrossPackageFixtures(t *testing.T) {
	const own = "repro/internal/lint/testdata/"
	cases := []struct {
		name  string
		pkgs  [][2]string // fixture directory, import path
		chain *regexp.Regexp
	}{
		{"reachcross", [][2]string{{"reachcross", "repro/internal/fault"}, {"reachcross/entropy", own + "reachcross/entropy"}},
			regexp.MustCompile(`fixture\.ProbeCross → entropy\.Read → rand\.Read`)},
		{"ifacecross", [][2]string{{"ifacecross/nvme", own + "ifacecross/nvme"}, {"ifacecross/kernel", own + "ifacecross/kernel"}},
			regexp.MustCompile(`hot via nvme\.\(Controller\)\.Submit → kernel\.\(req\)\.OnResult`)},
	}
	root, modPath, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := NewLoader(root, modPath)
			var pkgs []*Package
			var want []string
			for _, pp := range c.pkgs {
				p, err := l.LoadDir(filepath.Join("testdata", pp[0]), pp[1])
				if err != nil {
					t.Fatal(err)
				}
				for _, terr := range p.TypeErrors {
					t.Errorf("fixture type error: %v", terr)
				}
				pkgs = append(pkgs, p)
				want = append(want, expectations(p)...)
			}
			var got []string
			chained := false
			for _, f := range Run(pkgs, Rules()) {
				got = append(got, fmt.Sprintf("%s:%d %s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Rule))
				chained = chained || c.chain.MatchString(f.Msg)
			}
			sort.Strings(got)
			sort.Strings(want)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("findings mismatch\n got: %v\nwant: %v", got, want)
			}
			if !chained {
				t.Errorf("no finding carries the chain %v", c.chain)
			}
		})
	}
}

// TestScopeExclusions re-loads fixtures under paths outside each
// rule's scope and expects silence: nogoroutine and floatcompare only
// police the sim-core packages, and internal/rng is the one place
// math/rand imports are legitimate.
func TestScopeExclusions(t *testing.T) {
	cases := []struct {
		dir  string
		path string
	}{
		{"nogoroutine", "repro/internal/stats"}, // not a sim-core package
		{"floatcompare", "repro/internal/stats"},
		{"nogoroutine", "repro/cmd/tool"}, // not even internal
		{"globalrand", "repro/internal/rng"},
		// The orchestration tier is the sanctioned home for concurrency:
		// goroutines, channels, select, and sync are all legal there …
		{"nogoroutine", "repro/internal/runner"},
		// … as is, trivially, depending on orchestration machinery.
		{"boundary", "repro/internal/stats"},
	}
	for _, c := range cases {
		t.Run(c.dir+"@"+c.path, func(t *testing.T) {
			p := loadFixture(t, c.dir, c.path)
			if got := Run([]*Package{p}, determinismRules()); len(got) != 0 {
				t.Errorf("expected no findings for %s loaded as %s, got %v", c.dir, c.path, got)
			}
		})
	}
}

// TestMaporderAppliesToCmd documents the inverse scope decision: the
// maporder contract covers internal/ only, so the same fixture loaded
// as a cmd package is clean.
func TestMaporderAppliesToCmd(t *testing.T) {
	p := loadFixture(t, "maporder", "repro/cmd/tool")
	for _, f := range Run([]*Package{p}, determinismRules()) {
		if f.Rule == "maporder" {
			t.Errorf("maporder fired outside internal/: %v", f)
		}
	}
}

// TestFindingString pins the file:line:col rendering the CLI prints
// and the acceptance criteria rely on.
func TestFindingString(t *testing.T) {
	p := loadFixture(t, "globalrand", "repro/internal/fixture")
	fs := Run([]*Package{p}, determinismRules())
	if len(fs) != 1 {
		t.Fatalf("want exactly 1 finding, got %v", fs)
	}
	want := regexp.MustCompile(`globalrand\.go:6:2: import of math/rand.*\[globalrand\]$`)
	if !want.MatchString(fs[0].String()) {
		t.Errorf("finding rendered as %q, want match for %v", fs[0], want)
	}
}

// TestRuleMetadata keeps every rule addressable by the suppression
// directive, the ledger, and the generated docs: //afalint:allow and
// lint.baseline keys name rules across all three families, so names
// must be unique over the whole set, and the -doc table needs a doc
// and a scope for each.
func TestRuleMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range Rules() {
		if r.Name() == "" || r.Doc() == "" || r.Scope() == "" {
			t.Errorf("rule %T has empty metadata", r)
		}
		if seen[r.Name()] {
			t.Errorf("duplicate rule name %q", r.Name())
		}
		seen[r.Name()] = true
	}
	if len(seen) != 19 {
		t.Errorf("expected 19 rules across the three families, have %d", len(seen))
	}
}

// ruleByName selects one rule from Rules.
func ruleByName(t *testing.T, name string) Rule {
	t.Helper()
	for _, r := range Rules() {
		if r.Name() == name {
			return r
		}
	}
	t.Fatalf("no rule named %q", name)
	return nil
}

// TestReachCatchesWhatWallclockMisses is the acceptance regression for
// whole-program analysis: on the same fixture, the v1 wallclock rule
// alone is blind to the indirect chain (its only finding is the direct
// call; the locally excused helper is suppressed), while reachwallclock
// attributes the chain to the sim-core entry point with the full path
// in the message.
func TestReachCatchesWhatWallclockMisses(t *testing.T) {
	p := loadFixture(t, "reachwallclock", "repro/internal/sim")

	v1 := Run([]*Package{p}, []Rule{ruleByName(t, "wallclock")})
	for _, f := range v1 {
		if f.Pos.Line != 30 { // the direct time.Now in Direct()
			t.Errorf("wallclock alone should only see the direct call, got %v", f)
		}
	}
	if len(v1) != 1 {
		t.Fatalf("wallclock alone: want exactly the direct finding, got %v", v1)
	}

	v2 := Run([]*Package{p}, []Rule{ruleByName(t, "wallclock"), ruleByName(t, "reachwallclock")})
	var chains []string
	for _, f := range v2 {
		if f.Rule == "reachwallclock" {
			chains = append(chains, f.Msg)
		}
	}
	if len(chains) != 3 {
		t.Fatalf("want 3 reachwallclock findings (Indirect, HostState, DirectHost), got %v", chains)
	}
	wantChain := regexp.MustCompile(`fixture\.Indirect → fixture\.viaHelper → fixture\.excused → time\.Now`)
	found := false
	for _, msg := range chains {
		if wantChain.MatchString(msg) {
			found = true
		}
	}
	if !found {
		t.Errorf("no finding carries the full indirect call chain; got %v", chains)
	}
}

// TestReachScopedToSimCore loads the reach fixtures under a
// non-sim-core path: the per-site rules keep their findings, but no
// reach* finding may anchor there — reporting code may legally call
// helpers that a CLI has excused.
func TestReachScopedToSimCore(t *testing.T) {
	for _, dir := range []string{"reachwallclock", "reachrand"} {
		p := loadFixture(t, dir, "repro/internal/stats")
		for _, f := range Run([]*Package{p}, determinismRules()) {
			if f.Rule == "reachwallclock" || f.Rule == "reachrand" {
				t.Errorf("%s fired outside sim-core: %v", f.Rule, f)
			}
		}
	}
}
