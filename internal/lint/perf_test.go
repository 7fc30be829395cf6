package lint

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestPerfFixtures runs the afaperf family over the perf fixture
// corpus and asserts the exact set of finding positions against the
// want: markers — positive cases, the constructor exemption, the
// capture-free closure, the preallocated slice, the //afalint:allow
// suppression, and every cold control at once.
func TestPerfFixtures(t *testing.T) {
	p := loadFixture(t, "perf", "repro/internal/sim")
	var got []string
	for _, f := range Run([]*Package{p}, perfRules()) {
		got = append(got, fmt.Sprintf("%s:%d %s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Rule))
	}
	sort.Strings(got)
	want := expectations(p)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("findings mismatch\n got: %v\nwant: %v", got, want)
	}
}

// TestPerfScopedToInternal loads the same corpus under a cmd/ path
// whose tail still matches the anchor specs ("sim"): the hot set can
// form, but the perf rules only police internal packages, so the run
// must be silent.
func TestPerfScopedToInternal(t *testing.T) {
	p := loadFixture(t, "perf", "repro/cmd/sim")
	if got := Run([]*Package{p}, perfRules()); len(got) != 0 {
		t.Errorf("perf rules fired outside internal/: %v", got)
	}
}

// TestPerfNeedsHotRoots loads the corpus under an internal path whose
// tail matches no anchor or scheduler spec: without roots there is no
// hot set and no findings — the rules never degrade to whole-package
// style checks.
func TestPerfNeedsHotRoots(t *testing.T) {
	p := loadFixture(t, "perf", "repro/internal/fixture")
	if got := Run([]*Package{p}, perfRules()); len(got) != 0 {
		t.Errorf("perf rules fired without any hot root: %v", got)
	}
}

// TestPerfMuxAnchors covers the multiplexer anchors: the perfmux
// fixture references no scheduling primitive at all, so the findings in
// tickSlot, submitArrival, and their callees exist purely because the
// (fio, Multiplexer, tickSlot/submitArrival) anchors root them — and
// the cold method's map access stays silent.
func TestPerfMuxAnchors(t *testing.T) {
	p := loadFixture(t, "perfmux", "repro/internal/fio")
	var got []string
	for _, f := range Run([]*Package{p}, perfRules()) {
		got = append(got, fmt.Sprintf("%s:%d %s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Rule))
	}
	sort.Strings(got)
	want := expectations(p)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("findings mismatch\n got: %v\nwant: %v", got, want)
	}
}

// TestPerfMuxAnchorsNeedFioTail reloads the same corpus under a path
// whose tail matches no anchor: with no scheduler references either,
// there is no hot set and the run must be silent.
func TestPerfMuxAnchorsNeedFioTail(t *testing.T) {
	p := loadFixture(t, "perfmux", "repro/internal/muxfixture")
	if got := Run([]*Package{p}, perfRules()); len(got) != 0 {
		t.Errorf("perf rules fired without the fio anchor tail: %v", got)
	}
}

// TestHotSetSharedCallee is the hot-set attribution regression: Hot
// and Cold share the callee shared(); the callee's finding must carry
// the shortest chain through the hot side and must not mention the
// cold one.
func TestHotSetSharedCallee(t *testing.T) {
	p := loadFixture(t, "perf", "repro/internal/sim")
	var msg string
	for _, f := range Run([]*Package{p}, perfRules()) {
		if f.Rule == "hotdefer" && filepath.Base(f.Pos.Filename) == "hotset.go" {
			msg = f.Msg
		}
	}
	if msg == "" {
		t.Fatal("no hotdefer finding in hotset.go; shared() was not analyzed as hot")
	}
	if !strings.Contains(msg, "fixture.Hot → fixture.shared") {
		t.Errorf("finding does not carry the shortest hot chain: %q", msg)
	}
	if strings.Contains(msg, "Cold") {
		t.Errorf("hot-set chain routed through the cold caller: %q", msg)
	}
}

// TestPerfRuleMetadata pins the performance family itself: five rules,
// each with a doc and a scope for the -doc table, each named with the
// hot* prefix that marks the family in //afalint:allow directives and
// lint.baseline keys.
func TestPerfRuleMetadata(t *testing.T) {
	rules := perfRules()
	if len(rules) != 5 {
		t.Errorf("expected 5 perf rules, have %d", len(rules))
	}
	for _, r := range rules {
		if r.Doc() == "" || r.Scope() == "" {
			t.Errorf("perf rule %q has empty metadata", r.Name())
		}
		if !strings.HasPrefix(r.Name(), "hot") {
			t.Errorf("perf rule %q should carry the hot* family prefix", r.Name())
		}
	}
}
