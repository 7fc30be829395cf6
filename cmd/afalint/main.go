// Command afalint enforces the simulator's determinism contract: the
// property that the same seed always yields the same latency
// distributions, which every figure and A/B kernel comparison in this
// reproduction depends on. One pass runs every rule of its three
// families: the determinism contract itself (DESIGN.md §5), the
// hot-set performance contract (§8), and the state-integrity contract
// for pooled objects, Reset() and Snapshot()/Clone() methods (§10).
//
// Usage:
//
//	afalint [flags] [patterns]
//
//	afalint ./...                 # lint the whole module (the default)
//	afalint ./internal/sim        # one package
//	afalint ./internal/...        # a subtree
//	afalint -rules                # describe the rules and exit
//	afalint -doc                  # emit the rule table as markdown
//	afalint -json ./...           # findings as JSON
//	afalint -gha ./...            # findings as GitHub Actions annotations
//
//	# lint a bare directory (e.g. the fixture corpus) as if it were
//	# the named package; the import path controls rule scoping:
//	afalint -as repro/internal/sim ./internal/lint/testdata/nogoroutine
//
//	# record today's findings as accepted debt, then run against it
//	# (the module's ledger is lint.baseline at its root):
//	afalint -write-baseline lint.baseline ./...
//	afalint -baseline lint.baseline ./...
//
// Findings print as file:line:col with the rule name, sorted by
// position so output is byte-stable across runs; the exit status is 0
// when clean (or when every finding is covered by the -baseline file),
// 1 when findings remain, and 2 on a usage or load error. Baseline
// entries for the linted packages that no current finding matches are
// reported as stale on stderr.
// A finding is suppressed permanently by annotating the offending line
// (or the line above) with:
//
//	//afalint:allow <rule> [<rule>...] -- <reason>
//
// The same rules also run inside `go test ./...` via the self-check
// test in internal/lint, so the contract cannot regress silently.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, lints, writes findings to
// stdout and diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("afalint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		asJSON        = fs.Bool("json", false, "emit findings as a JSON array")
		asGHA         = fs.Bool("gha", false, "emit findings as GitHub Actions ::error annotations")
		listRules     = fs.Bool("rules", false, "describe every rule and exit")
		asDoc         = fs.Bool("doc", false, "emit the rule table as markdown and exit")
		asPath        = fs.String("as", "", "lint a single directory under this import path (scope override)")
		baselinePath  = fs.String("baseline", "", "filter findings through this baseline file; stale entries warn on stderr")
		writeBaseline = fs.String("write-baseline", "", "record current findings to this baseline file and exit")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "afalint:", err)
		return 2
	}

	if *listRules {
		for _, fam := range lint.Families() {
			fmt.Fprintf(stdout, "%s:\n", fam.Title)
			for _, r := range fam.Rules {
				fmt.Fprintf(stdout, "  %-14s %s\n", r.Name(), r.Doc())
			}
		}
		return 0
	}
	if *asDoc {
		fmt.Fprint(stdout, ruleDoc())
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	root, modPath, err := lint.FindModule(cwd)
	if err != nil {
		return fail(err)
	}
	loader := lint.NewLoader(root, modPath)

	var selected []*lint.Package
	if *asPath != "" {
		if len(patterns) != 1 || strings.HasSuffix(patterns[0], "...") {
			return fail(fmt.Errorf("-as requires exactly one directory argument"))
		}
		// Rooted at the working directory, so file names and ledger keys
		// come out module-relative wherever the command runs from.
		dir := patterns[0]
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(cwd, dir)
		}
		p, err := loader.LoadDir(dir, *asPath)
		if err != nil {
			return fail(err)
		}
		selected = []*lint.Package{p}
	} else {
		pkgs, err := loader.LoadModule()
		if err != nil {
			return fail(err)
		}
		for _, p := range pkgs {
			if matchesAny(p, patterns, root, modPath, cwd) {
				selected = append(selected, p)
			}
		}
	}
	if len(selected) == 0 {
		return fail(fmt.Errorf("no packages match %v", patterns))
	}

	findings := lint.Run(selected, lint.Rules()) // sorted: output is byte-stable

	if *writeBaseline != "" {
		if err := os.WriteFile(*writeBaseline, lint.WriteBaseline(findings, root), 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "afalint: recorded %d finding(s) to %s\n", len(findings), *writeBaseline)
		return 0
	}
	if *baselinePath != "" {
		data, err := os.ReadFile(*baselinePath)
		if err != nil {
			return fail(err)
		}
		b, err := lint.ParseBaseline(data)
		if err != nil {
			return fail(err)
		}
		kept, suppressed, stale := b.Filter(findings, root, selected)
		for _, s := range stale {
			fmt.Fprintf(stderr, "afalint: stale baseline entry (fixed? delete it): %s\n", s)
		}
		if suppressed > 0 {
			fmt.Fprintf(stderr, "afalint: %d finding(s) covered by baseline %s\n", suppressed, *baselinePath)
		}
		findings = kept
	}

	switch {
	case *asJSON:
		// A clean run prints [] rather than null, so JSON consumers
		// always get an array.
		if findings == nil {
			findings = []lint.Finding{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			return fail(err)
		}
	case *asGHA:
		for _, f := range findings {
			fmt.Fprintln(stdout, ghaAnnotation(f, root))
		}
	default:
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		if !*asJSON {
			fmt.Fprintf(stderr, "afalint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}

// ghaAnnotation renders one finding as a GitHub Actions workflow
// command so CI failures annotate the offending line in the diff view.
// Paths are relativized to the module root (GitHub resolves them
// against the checkout). The message escaping follows the workflow
// command spec: %, CR, and LF in the free text.
func ghaAnnotation(f lint.Finding, root string) string {
	esc := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	return fmt.Sprintf("::error file=%s,line=%d,col=%d,title=afalint/%s::%s",
		lint.RelPath(f.Pos.Filename, root), f.Pos.Line, f.Pos.Column, f.Rule, esc.Replace(f.Msg))
}

// ruleDoc renders the rule table as markdown, the generated half of the
// rule documentation in README.md; DESIGN.md §5/§8/§10 document each
// rule's scope and rationale. All three families share one table; the
// scope column says where each rule applies.
func ruleDoc() string {
	var sb strings.Builder
	sb.WriteString("| Rule | Scope | What it enforces |\n")
	sb.WriteString("|------|-------|------------------|\n")
	for _, r := range lint.Rules() {
		sb.WriteString(fmt.Sprintf("| `%s` | %s | %s |\n", r.Name(), r.Scope(), r.Doc()))
	}
	return sb.String()
}

// matchesAny reports whether package p matches one of the patterns.
// Supported forms: "./..." and "..." (everything), "dir/..." subtrees,
// plain directories, and import paths with or without a trailing /...
func matchesAny(p *lint.Package, patterns []string, root, modPath, cwd string) bool {
	for _, pat := range patterns {
		if pat == "./..." || pat == "..." {
			return true
		}
		// Normalize a filesystem-style pattern to an import path.
		target := pat
		subtree := false
		if rest, ok := strings.CutSuffix(target, "/..."); ok {
			subtree = true
			target = rest
		}
		if strings.HasPrefix(pat, ".") || strings.Contains(pat, string(filepath.Separator)) && !strings.HasPrefix(pat, modPath) {
			abs, err := filepath.Abs(filepath.Join(cwd, target))
			if err != nil {
				continue
			}
			rel, err := filepath.Rel(root, abs)
			if err != nil || strings.HasPrefix(rel, "..") {
				continue
			}
			if rel == "." {
				target = modPath
			} else {
				target = modPath + "/" + filepath.ToSlash(rel)
			}
		}
		if p.Path == target || (subtree && strings.HasPrefix(p.Path, target+"/")) {
			return true
		}
	}
	return false
}
