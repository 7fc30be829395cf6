package lint

import (
	"go/token"
	"reflect"
	"testing"
)

func mkFinding(file string, line, col int, rule, msg string) Finding {
	return Finding{Rule: rule, Msg: msg, Pos: token.Position{Filename: file, Line: line, Column: col}}
}

// TestSortFindingsTotalOrder pins the (file, line, col, rule, msg)
// sort key every output path emits. The msg tiebreak is the
// regression: two findings of the same rule on the same position must
// order by message, not by rule traversal order.
func TestSortFindingsTotalOrder(t *testing.T) {
	got := []Finding{
		mkFinding("b.go", 1, 1, "hotalloc", "z"),
		mkFinding("a.go", 2, 1, "hotmap", "m"),
		mkFinding("b.go", 1, 1, "hotalloc", "a"),
		mkFinding("a.go", 2, 1, "hotalloc", "m"),
		mkFinding("a.go", 1, 9, "hotalloc", "m"),
		mkFinding("a.go", 1, 2, "wallclock", "m"),
	}
	want := []Finding{
		mkFinding("a.go", 1, 2, "wallclock", "m"),
		mkFinding("a.go", 1, 9, "hotalloc", "m"),
		mkFinding("a.go", 2, 1, "hotalloc", "m"),
		mkFinding("a.go", 2, 1, "hotmap", "m"),
		mkFinding("b.go", 1, 1, "hotalloc", "a"),
		mkFinding("b.go", 1, 1, "hotalloc", "z"),
	}
	SortFindings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sort order wrong:\n got: %v\nwant: %v", got, want)
	}

	// Sorting the sorted slice is a fixed point: the comparator is a
	// strict weak order, not traversal-order dependent.
	again := append([]Finding(nil), got...)
	SortFindings(again)
	if !reflect.DeepEqual(got, again) {
		t.Errorf("sort is not idempotent")
	}
}
