package lint

import (
	"go/token"
	"strings"
	"testing"
)

func bfinding(file, rule, msg string) Finding {
	return Finding{Rule: rule, Msg: msg, Pos: token.Position{Filename: file, Line: 10, Column: 3}}
}

// TestBaselineRoundTrip: findings written with WriteBaseline are fully
// consumed when parsed back and filtered against the same findings —
// the land-a-new-rule-with-recorded-debts workflow.
func TestBaselineRoundTrip(t *testing.T) {
	findings := []Finding{
		bfinding("/repo/a.go", "simtime", "Time + Time adds two instants"),
		bfinding("/repo/b.go", "exhaustive", "switch over Status misses StatusAborted"),
		bfinding("/repo/b.go", "exhaustive", "switch over Status misses StatusAborted"), // duplicate: multiset
	}
	b, err := ParseBaseline(WriteBaseline(findings, "/repo"))
	if err != nil {
		t.Fatal(err)
	}
	kept, suppressed, stale := b.Filter(findings, "/repo", nil)
	if len(kept) != 0 || suppressed != 3 || len(stale) != 0 {
		t.Errorf("round trip: kept=%v suppressed=%d stale=%v, want 0/3/0", kept, suppressed, stale)
	}
}

// TestBaselineLineDriftInsensitive: keys exclude line and column, so an
// edit that shifts the finding within its file does not invalidate the
// recorded debt.
func TestBaselineLineDriftInsensitive(t *testing.T) {
	orig := bfinding("/repo/a.go", "simtime", "Time + Time adds two instants")
	b, err := ParseBaseline(WriteBaseline([]Finding{orig}, "/repo"))
	if err != nil {
		t.Fatal(err)
	}
	moved := orig
	moved.Pos.Line = 99
	moved.Pos.Column = 1
	kept, suppressed, _ := b.Filter([]Finding{moved}, "/repo", nil)
	if len(kept) != 0 || suppressed != 1 {
		t.Errorf("moved finding not suppressed: kept=%v", kept)
	}
}

// TestBaselineNewAndStale: a finding outside the ledger is kept; a
// ledger entry nothing matches is reported stale.
func TestBaselineNewAndStale(t *testing.T) {
	b, err := ParseBaseline(WriteBaseline([]Finding{
		bfinding("/repo/gone.go", "simtime", "fixed long ago"),
	}, "/repo"))
	if err != nil {
		t.Fatal(err)
	}
	fresh := bfinding("/repo/new.go", "rngstream", "stream captured")
	kept, suppressed, stale := b.Filter([]Finding{fresh}, "/repo", nil)
	if len(kept) != 1 || suppressed != 0 {
		t.Errorf("fresh finding must be kept: kept=%v suppressed=%d", kept, suppressed)
	}
	if len(stale) != 1 || !strings.Contains(stale[0], "gone.go") {
		t.Errorf("want the unconsumed entry reported stale, got %v", stale)
	}
}

// TestBaselineDuplicateCounts: two identical findings against one
// ledger entry consume it once and keep the second.
func TestBaselineDuplicateCounts(t *testing.T) {
	f := bfinding("/repo/a.go", "simtime", "raw literal")
	b, err := ParseBaseline(WriteBaseline([]Finding{f}, "/repo"))
	if err != nil {
		t.Fatal(err)
	}
	kept, suppressed, _ := b.Filter([]Finding{f, f}, "/repo", nil)
	if suppressed != 1 || len(kept) != 1 {
		t.Errorf("multiset semantics violated: suppressed=%d kept=%v", suppressed, kept)
	}
}

// TestBaselineParseErrors: comments and blanks are ignored, anything
// else malformed is a hard error with its line number.
func TestBaselineParseErrors(t *testing.T) {
	if _, err := ParseBaseline([]byte("# comment\n\n  \n")); err != nil {
		t.Errorf("comments and blanks must parse: %v", err)
	}
	_, err := ParseBaseline([]byte("# ok\nnot a baseline line\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("want a line-numbered parse error, got %v", err)
	}
}

// TestBaselineRelativizesPaths: keys are repo-relative so the ledger is
// stable across checkouts; files outside root keep absolute paths.
func TestBaselineRelativizesPaths(t *testing.T) {
	f := bfinding("/repo/sub/a.go", "simtime", "msg")
	data := string(WriteBaseline([]Finding{f}, "/repo"))
	if !strings.Contains(data, "sub/a.go: msg [simtime]") || strings.Contains(data, "/repo/sub") {
		t.Errorf("want relative path in ledger, got:\n%s", data)
	}
}
