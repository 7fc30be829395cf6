package main

import (
	"bytes"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
)

// fixture is the absolute path of one directory of the lint fixture
// corpus, so findings and ledger keys come out module-relative.
func fixture(t *testing.T, dir string) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("..", "..", "internal", "lint", "testdata", dir))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// TestRun drives the command end to end on the fixture corpus through
// -as: exit codes, the JSON and annotation renderers, and the ledger
// (filtering, and stale entries scoped to the packages the run saw).
func TestRun(t *testing.T) {
	clean := fixture(t, "nogoroutine") // silent outside internal/
	dirty := fixture(t, "globalrand")  // one globalrand finding
	// The same directory as the test's working directory, cmd/afalint,
	// names it.
	relDirty := filepath.Join("..", "..", "internal", "lint", "testdata", "globalrand")
	tmp := t.TempDir()
	exact := filepath.Join(tmp, "exact.baseline")
	if code := run([]string{"-write-baseline", exact, "-as", "repro/internal/fixture", dirty}, &bytes.Buffer{}, &bytes.Buffer{}); code != 0 {
		t.Fatalf("-write-baseline exited %d", code)
	}
	recorded, err := os.ReadFile(exact)
	if err != nil {
		t.Fatal(err)
	}
	// A ledger that also carries a line for a package this run does not
	// lint (out of sight, so not stale) and one for the linted fixture
	// file that nothing matches (stale).
	wider := filepath.Join(tmp, "wider.baseline")
	extra := "internal/raid/write.go: closure allocates per event [hotalloc]\n" +
		"internal/lint/testdata/globalrand/globalrand.go: fixed long ago [globalrand]\n"
	if err := os.WriteFile(wider, append(recorded, extra...), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		args       []string
		code       int
		stdout     *regexp.Regexp // must match stdout when non-nil
		stderr     *regexp.Regexp // must match stderr when non-nil
		stderrNot  string         // must not appear on stderr when non-empty
		stdoutFull string         // exact stdout when non-empty
	}{
		{name: "clean package", args: []string{"-as", "repro/cmd/tool", clean}, code: 0},
		{name: "findings", args: []string{"-as", "repro/internal/fixture", dirty}, code: 1,
			stdout: regexp.MustCompile(`globalrand\.go:6:2: import of math/rand.*\[globalrand\]`),
			stderr: regexp.MustCompile(`afalint: 1 finding\(s\)`)},
		{name: "json on a clean run is an empty array", args: []string{"-json", "-as", "repro/cmd/tool", clean}, code: 0, stdoutFull: "[]\n"},
		{name: "json with findings", args: []string{"-json", "-as", "repro/internal/fixture", dirty}, code: 1,
			stdout: regexp.MustCompile(`"Rule": "globalrand"`)},
		{name: "gha", args: []string{"-gha", "-as", "repro/internal/fixture", dirty}, code: 1,
			stdout: regexp.MustCompile(`^::error file=internal/lint/testdata/globalrand/globalrand\.go,line=6,col=2,title=afalint/globalrand::import of math/rand`)},
		{name: "baseline covers every finding", args: []string{"-baseline", exact, "-as", "repro/internal/fixture", dirty}, code: 0,
			stderr: regexp.MustCompile(`1 finding\(s\) covered by baseline`), stderrNot: "stale"},
		{name: "stale entries only for linted packages", args: []string{"-baseline", wider, "-as", "repro/internal/fixture", dirty}, code: 0,
			stderr:    regexp.MustCompile(`stale baseline entry \(fixed\? delete it\): internal/lint/testdata/globalrand/globalrand\.go: fixed long ago \[globalrand\]`),
			stderrNot: "internal/raid"},
		{name: "relative directory from a subdirectory keys the ledger from the root", args: []string{"-baseline", exact, "-as", "repro/internal/fixture", relDirty}, code: 0,
			stderr: regexp.MustCompile(`1 finding\(s\) covered by baseline`), stderrNot: "stale"},
		{name: "relative directory from a subdirectory annotates from the root", args: []string{"-gha", "-as", "repro/internal/fixture", relDirty}, code: 1,
			stdout: regexp.MustCompile(`^::error file=internal/lint/testdata/globalrand/globalrand\.go,line=6,col=2,`)},
		{name: "removed -perf", args: []string{"-perf", "./..."}, code: 2},
		{name: "removed -state", args: []string{"-state", "./..."}, code: 2},
		{name: "removed -escape-data", args: []string{"-escape-data", "escape.txt", "./..."}, code: 2},
		{name: "-as with two directories", args: []string{"-as", "repro/internal/fixture", dirty, clean}, code: 2,
			stderr: regexp.MustCompile(`-as requires exactly one directory argument`)},
		{name: "no package matches", args: []string{"./no/such/dir"}, code: 2,
			stderr: regexp.MustCompile(`no packages match`)},
		{name: "missing baseline file", args: []string{"-baseline", filepath.Join(tmp, "absent"), "-as", "repro/cmd/tool", clean}, code: 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, &stdout, &stderr)
			if code != c.code {
				t.Errorf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, c.code, stdout.String(), stderr.String())
			}
			if c.stdoutFull != "" && stdout.String() != c.stdoutFull {
				t.Errorf("stdout = %q, want %q", stdout.String(), c.stdoutFull)
			}
			if c.stdoutFull == "" && c.stdout == nil && c.code == 0 && stdout.Len() != 0 {
				t.Errorf("unexpected stdout:\n%s", stdout.String())
			}
			if c.stdout != nil && !c.stdout.MatchString(stdout.String()) {
				t.Errorf("stdout does not match %v:\n%s", c.stdout, stdout.String())
			}
			if c.stderr != nil && !c.stderr.MatchString(stderr.String()) {
				t.Errorf("stderr does not match %v:\n%s", c.stderr, stderr.String())
			}
			if c.stderrNot != "" && strings.Contains(stderr.String(), c.stderrNot) {
				t.Errorf("stderr mentions %q:\n%s", c.stderrNot, stderr.String())
			}
		})
	}
}

// TestGHAAnnotationEscapes pins the workflow-command escaping: %, CR
// and LF in the message would otherwise end or corrupt the annotation.
func TestGHAAnnotationEscapes(t *testing.T) {
	f := lint.Finding{
		Rule: "hotalloc",
		Pos:  token.Position{Filename: "/mod/internal/sim/engine.go", Line: 7, Column: 3},
		Msg:  "100% of events\r\nallocate",
	}
	got := ghaAnnotation(f, "/mod")
	want := "::error file=internal/sim/engine.go,line=7,col=3,title=afalint/hotalloc::100%25 of events%0D%0Aallocate"
	if got != want {
		t.Errorf("ghaAnnotation = %q\nwant %q", got, want)
	}
}

// TestRuleDocsMatch keeps the documentation from drifting away from
// the analyzer: README.md's rule table is exactly `afalint -doc`, and
// every rule has a row in one of DESIGN.md's scope tables (§5, §8,
// §10). Regenerate the README table with `go run ./cmd/afalint -doc`.
func TestRuleDocsMatch(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	var table strings.Builder
	inTable := false
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, "| Rule | Scope | What it enforces |") {
			inTable = true
		}
		if inTable {
			if !strings.HasPrefix(line, "|") {
				break
			}
			table.WriteString(line + "\n")
		}
	}
	if table.Len() == 0 {
		t.Fatal("README.md has no afalint rule table (a markdown table headed '| Rule | Scope | What it enforces |')")
	}
	if got, want := table.String(), ruleDoc(); got != want {
		t.Errorf("README.md's rule table is stale; regenerate it with `go run ./cmd/afalint -doc`\n got:\n%s\nwant:\n%s", got, want)
	}

	design, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range lint.Rules() {
		if !strings.Contains(string(design), "| `"+r.Name()+"` |") {
			t.Errorf("rule %s has no row in DESIGN.md's scope tables (§5, §8, §10)", r.Name())
		}
	}
}
