// Package lint is afalint's rule engine: a pure-stdlib static analyzer
// that enforces the simulator's determinism contract.
//
// The contract (DESIGN.md §5) is what makes the reproduction
// meaningful: the same seed must always yield the same latency
// distributions, so every figure and A/B kernel comparison is exactly
// reproducible. One pass runs three rule families, listed by Families
// and documented rule by rule in each Rule's Doc, `afalint -rules`,
// and DESIGN.md:
//
//   - determinism (§5): per-file rules against the ways nondeterminism
//     leaks into Go programs (wall clock, global rand, map order,
//     concurrency and float equality in the sim core), plus
//     whole-program rules over a module-wide call graph
//     (callgraph.go): reachability from sim-core entry points to the
//     wall clock or entropy, enum exhaustiveness, sim-time unit safety,
//     and rng-stream ownership in runner.Map jobs;
//   - performance (§8, perf.go): per-event costs in the hot set;
//   - state integrity (§10, state.go/fieldgraph.go): must-assign field
//     coverage for pooled objects, Reset() and Snapshot()/Clone()
//     methods, package-level state, and use after recycle.
//
// A finding on a given line is suppressed by the directive
//
//	//afalint:allow <rule> [<rule>...] [-- reason]
//
// placed either on the same line or on the line immediately above.
// The self-check test in this package runs every rule of every family
// over the whole module, so `go test ./...` permanently enforces the
// contracts.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Rule string         // rule name, e.g. "wallclock"
	Pos  token.Position // file:line:col of the offending node
	Msg  string         // human-readable explanation
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Msg, f.Rule)
}

// Rule is one contract check. Check receives a loaded package and
// returns raw findings; the engine applies suppression directives
// afterwards. Scope names, for the generated documentation, where the
// rule applies ("whole module", "sim-core packages", "hot set
// (internal/)", ...).
type Rule interface {
	Name() string
	Doc() string
	Scope() string
	Check(p *Package) []Finding
}

// Family is one rule family under its documentation banner: the
// determinism contract (DESIGN.md §5), the performance contract (§8),
// or the state-integrity contract (§10).
type Family struct {
	Title string
	Rules []Rule
}

// Families returns the three rule families in canonical order.
func Families() []Family {
	return []Family{
		{"determinism contract (DESIGN.md §5)", determinismRules()},
		{"performance contract (DESIGN.md §8)", perfRules()},
		{"state-integrity contract (DESIGN.md §10)", stateRules()},
	}
}

// Rules returns every rule of every family in canonical order: the
// one rule set afalint and the self-check run.
func Rules() []Rule {
	var out []Rule
	for _, fam := range Families() {
		out = append(out, fam.Rules...)
	}
	return out
}

// determinismRules returns the determinism family: the per-file rules
// of v1, then the call-graph and type-driven rules of v2.
func determinismRules() []Rule {
	return []Rule{
		wallclockRule{},
		globalrandRule{},
		maporderRule{},
		nogoroutineRule{},
		floatcompareRule{},
		reachwallclockRule{},
		reachrandRule{},
		exhaustiveRule{},
		simtimeRule{},
		rngstreamRule{},
	}
}

// AllowDirective is the comment prefix that suppresses findings.
const AllowDirective = "//afalint:allow"

// Run assembles the whole-program view (module call graph) over pkgs,
// applies rules to every package, drops suppressed findings, and
// returns the rest sorted by (file, line, col, rule). When Run is given
// a subset of the module, the call graph covers just that subset, which
// narrows what the reach* rules can see; the self-check and CI always
// run the whole module.
func Run(pkgs []*Package, rules []Rule) []Finding {
	prog := NewProgram(pkgs)
	for _, p := range pkgs {
		p.prog = prog
	}
	var out []Finding
	for _, p := range pkgs {
		allowed := collectAllows(p)
		for _, r := range rules {
			for _, f := range r.Check(p) {
				if allowed.permits(f.Rule, f.Pos) {
					continue
				}
				out = append(out, f)
			}
		}
	}
	SortFindings(out)
	return out
}

// SortFindings orders findings by (file, line, col, rule, msg) — the
// one byte-stable order every output path (text, -json, -gha,
// baselines) emits, regardless of package load or rule execution
// order. Msg is the final tiebreak because one rule can report several
// distinct findings on the same node (e.g. two hotalloc closures on
// one line after gofmt joins them), and a total order must not depend
// on traversal order.
func SortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

// allowKey identifies one (file, line) a directive applies to.
type allowKey struct {
	file string
	line int
}

// allowSet records which rules are allowed on which lines.
type allowSet map[allowKey]map[string]bool

// permits reports whether rule is suppressed at pos: a directive on the
// same line or the line immediately above covers it.
func (a allowSet) permits(rule string, pos token.Position) bool {
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if rules := a[allowKey{pos.Filename, line}]; rules[rule] {
			return true
		}
	}
	return false
}

// finding builds a Finding for a node position in p.
func (p *Package) finding(rule string, pos token.Pos, format string, args ...any) Finding {
	return Finding{Rule: rule, Pos: p.Fset.Position(pos), Msg: fmt.Sprintf(format, args...)}
}

// isInternal reports whether the package lives under internal/.
func isInternal(path string) bool {
	return strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/")
}

// simCorePackages are the single-threaded simulator-core packages where
// the strictest rules (nogoroutine, floatcompare) apply: everything that
// executes inside the discrete-event loop.
var simCorePackages = map[string]bool{
	"sim":    true,
	"sched":  true,
	"nvme":   true,
	"nand":   true,
	"pcie":   true,
	"fio":    true,
	"raid":   true,
	"kernel": true,
	"irq":    true,
	"fault":  true,
	"health": true,
}

// isSimCore reports whether path is one of the sim-core packages
// (internal/<name> with <name> in the sim-core set).
func isSimCore(path string) bool {
	if !isInternal(path) {
		return false
	}
	rest := path[strings.LastIndex(path, "internal/")+len("internal/"):]
	return simCorePackages[rest]
}

// orchestrationPackages are the other side of the two-tier concurrency
// contract (DESIGN.md §7): the packages sanctioned to use goroutines,
// channels, and sync, because they fan *independent* sim runs out
// across CPUs — each job owns its engine and rng streams, and results
// merge in submission order, so no simulation state ever crosses a
// goroutine. The boundary is one-way: nogoroutine also forbids the
// sim-core packages from importing anything listed here.
var orchestrationPackages = map[string]bool{
	"runner": true,
}

// isOrchestration reports whether path is one of the orchestration-tier
// packages (internal/<name> with <name> in the orchestration set).
func isOrchestration(path string) bool {
	if !isInternal(path) {
		return false
	}
	rest := path[strings.LastIndex(path, "internal/")+len("internal/"):]
	return orchestrationPackages[rest]
}
