package lint

import (
	"fmt"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// Baseline support: a recorded-debt file that lets a new rule land
// before every pre-existing finding is fixed. The baseline is a
// multiset of findings keyed by (file, rule, message) — line and column
// are deliberately excluded so unrelated edits that shift a file do not
// invalidate the whole ledger. A finding that matches an unconsumed
// baseline entry is filtered from the run; entries left unconsumed are
// stale debts the caller should prune.
//
// File format, one finding per line (exactly what WriteBaseline emits):
//
//	<relative/file.go>: <message> [<rule>]
//
// Blank lines and lines starting with '#' are comments.

// Baseline is a parsed baseline file.
type Baseline struct {
	counts map[string]int
	order  []string // first-seen key order, for stale reporting
}

// baselineKey normalizes one finding to its ledger key. root, when
// non-empty, relativizes the file path so baselines are stable across
// checkouts.
func baselineKey(f Finding, root string) string {
	return fmt.Sprintf("%s: %s [%s]", RelPath(f.Pos.Filename, root), f.Msg, f.Rule)
}

// RelPath is file relative to root, or file itself when it does not
// lie under root, in slash form: how ledger keys and CI annotations
// name a file.
func RelPath(file, root string) string {
	if root != "" {
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
	}
	return filepath.ToSlash(file)
}

// ParseBaseline parses baseline file contents.
func ParseBaseline(data []byte) (*Baseline, error) {
	b := &Baseline{counts: map[string]int{}}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasSuffix(line, "]") || !strings.Contains(line, ": ") {
			return nil, fmt.Errorf("lint: baseline line %d: want \"file: message [rule]\", got %q", i+1, line)
		}
		if b.counts[line] == 0 {
			b.order = append(b.order, line)
		}
		b.counts[line]++
	}
	return b, nil
}

// Filter partitions findings into those not covered by the baseline
// (returned) and those consumed by it. It also returns the stale
// entries: baseline lines no current finding matched, which should be
// deleted from the file. Only a line the run could have matched can be
// stale: one whose file lies in the directory of a package in pkgs
// (the packages the findings came from), or whose file no longer
// exists under root. A partial run leaves every other line alone.
func (b *Baseline) Filter(findings []Finding, root string, pkgs []*Package) (kept []Finding, suppressed int, stale []string) {
	remaining := map[string]int{}
	for _, k := range b.order {
		remaining[k] = b.counts[k]
	}
	for _, f := range findings {
		key := baselineKey(f, root)
		if remaining[key] > 0 {
			remaining[key]--
			suppressed++
			continue
		}
		kept = append(kept, f)
	}
	dirs := map[string]bool{}
	for _, p := range pkgs {
		dirs[path.Clean(RelPath(p.Dir, root))] = true
	}
	for _, k := range b.order {
		if remaining[k] == 0 {
			continue
		}
		file, _, _ := strings.Cut(k, ": ")
		name := filepath.FromSlash(file)
		if !filepath.IsAbs(name) {
			name = filepath.Join(root, name)
		}
		if _, err := os.Stat(name); err == nil && !dirs[path.Dir(file)] {
			continue
		}
		stale = append(stale, k)
	}
	return kept, suppressed, stale
}

// WriteBaseline renders findings as baseline file contents, sorted and
// ready to commit.
func WriteBaseline(findings []Finding, root string) []byte {
	var lines []string
	for _, f := range findings {
		lines = append(lines, baselineKey(f, root))
	}
	sort.Strings(lines)
	var sb strings.Builder
	sb.WriteString("# afalint baseline: known accepted debts.\n")
	sb.WriteString("# Each line excuses one finding (file: message [rule]); delete lines as debts are fixed.\n")
	for _, l := range lines {
		sb.WriteString(l)
		sb.WriteString("\n")
	}
	return []byte(sb.String())
}
