package lint

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestStateFixtures runs the state-integrity family over the fixture
// corpus and asserts the exact set of finding positions against the
// want: markers — positive cases (a pooled field leaking across
// reuses, a Reset that skips a field on one path, a partial snapshot
// literal, package-level vars, use-after-release), the accepted idioms
// (whole-object reset, range-clear, element-delegation, whole-value
// clone, caller-side initialization), and the sticky/allow exemptions.
func TestStateFixtures(t *testing.T) {
	p := loadFixture(t, "state", "repro/internal/sim")
	var got []string
	for _, f := range Run([]*Package{p}, stateRules()) {
		got = append(got, fmt.Sprintf("%s:%d %s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Rule))
	}
	sort.Strings(got)
	want := expectations(p)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("findings mismatch\n got: %v\nwant: %v", got, want)
	}
}

// TestStateFindingsNameTheField pins the part of the contract the
// positions alone cannot: a resetcover/snapshotcover finding must name
// the exact field that leaks, because that name is what makes the
// finding actionable.
func TestStateFindingsNameTheField(t *testing.T) {
	p := loadFixture(t, "state", "repro/internal/sim")
	wantFields := map[string]string{
		"leakyReq":    "cookie",
		"carrier":     "data",
		"counterBank": "peak",
		"latch":       "count",
		"gauge":       "errs",
		"prober":      "y",
	}
	findings := Run([]*Package{p}, stateRules())
	for owner, field := range wantFields {
		found := false
		for _, f := range findings {
			if strings.Contains(f.Msg, owner) && strings.Contains(f.Msg, "field "+field) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no finding names %s's missed field %s; messages:\n%v", owner, field, findings)
		}
	}
}

// TestStateScopedOut reloads the same corpus outside the state scope
// (not under internal/) and expects silence: the family polices
// sim-core and stats, not command-line tools.
func TestStateScopedOut(t *testing.T) {
	p := loadFixture(t, "state", "repro/cmd/sim")
	if got := Run([]*Package{p}, stateRules()); len(got) != 0 {
		t.Errorf("state rules fired outside their scope: %v", got)
	}
}

// TestStateStatsInScope confirms internal/stats is policed even though
// it is not a sim-core package: its Reset/Snapshot surfaces feed every
// figure.
func TestStateStatsInScope(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"repro/internal/stats", true},
		{"repro/internal/sim", true},
		{"repro/internal/trace", false},
		{"repro/cmd/sim", false},
	}
	for _, c := range cases {
		if got := isStateScope(c.path); got != c.want {
			t.Errorf("isStateScope(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}
