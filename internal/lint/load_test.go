package lint

import (
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// moduleLoader returns a loader rooted at this repo's module, suitable
// for loading scratch directories as synthetic packages.
func moduleLoader(t *testing.T) *Loader {
	t.Helper()
	root, modPath, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	return NewLoader(root, modPath)
}

// TestLoadDirUnparsableSource pins the error path for a directory
// containing invalid Go: LoadDir must return an error naming the load
// step and position, never a half-parsed package or a panic.
func TestLoadDirUnparsableSource(t *testing.T) {
	dir := t.TempDir()
	src := "package broken\n\nfunc oops( {\n"
	if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := moduleLoader(t).LoadDir(dir, "repro/internal/broken")
	if err == nil {
		t.Fatalf("want parse error, got package %+v", p)
	}
	if !strings.Contains(err.Error(), "lint: parsing") || !strings.Contains(err.Error(), "broken.go") {
		t.Errorf("error should identify the load step and file, got: %v", err)
	}
}

// TestLoadDirTypeErrors pins the degradation contract for code that
// parses but does not type-check: LoadDir succeeds, the diagnostics
// land in TypeErrors (so callers can decide whether partial Info is
// acceptable), and running the rules does not panic.
func TestLoadDirTypeErrors(t *testing.T) {
	dir := t.TempDir()
	src := "package semibroken\n\nfunc f() int { return undefinedIdentifier }\n"
	if err := os.WriteFile(filepath.Join(dir, "semibroken.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := moduleLoader(t).LoadDir(dir, "repro/internal/semibroken")
	if err != nil {
		t.Fatalf("type errors must not fail the load: %v", err)
	}
	if len(p.TypeErrors) == 0 {
		t.Error("want the undefined identifier recorded in TypeErrors")
	}
	// Partial type info must not crash any rule, including the
	// call-graph construction behind the reach rules.
	_ = Run([]*Package{p}, Rules())
}

// TestLoadDirEmptyPackage pins the empty-directory error path: a
// directory with no Go files is a caller mistake (wrong -as target,
// deleted fixture) and must fail with a diagnosable message instead of
// producing a silently finding-free package.
func TestLoadDirEmptyPackage(t *testing.T) {
	dir := t.TempDir()
	if _, err := moduleLoader(t).LoadDir(dir, "repro/internal/empty"); err == nil {
		t.Fatal("want an error for a directory with no Go files")
	} else if !strings.Contains(err.Error(), "no Go source files") {
		t.Errorf("error should say the directory is empty, got: %v", err)
	}
}

// TestLoadDirMissingDirectory pins the unreadable-directory error path.
func TestLoadDirMissingDirectory(t *testing.T) {
	if _, err := moduleLoader(t).LoadDir(filepath.Join(t.TempDir(), "nope"), "repro/internal/nope"); err == nil {
		t.Fatal("want an error for a nonexistent directory")
	}
}

// TestLoadDirHonoursBuildConstraints: a file pair that declares one
// name under //go:build race and !race builds with the go tool, so it
// must load as one package without type errors, holding only the file
// a plain build selects.
func TestLoadDirHonoursBuildConstraints(t *testing.T) {
	p := loadFixture(t, "buildtags", "repro/internal/buildtags")
	var names []string
	for _, f := range p.Files {
		names = append(names, filepath.Base(p.Fset.File(f.Pos()).Name()))
	}
	if len(names) != 1 || names[0] != "norace.go" {
		t.Errorf("loaded %v, want [norace.go]", names)
	}
}

// TestOneCheckPerPackage: every module import of a loaded package is
// the very *types.Package the loader checked for analysis, so a call or
// an interface dispatch into another package resolves to the callee's
// own objects.
func TestOneCheckPerPackage(t *testing.T) {
	sc := repoSelfCheck(t)
	byPath := map[string]*types.Package{}
	for _, p := range sc.pkgs {
		byPath[p.Path] = p.Types
	}
	n := 0
	for _, p := range sc.pkgs {
		for _, imp := range p.Types.Imports() {
			if q, ok := byPath[imp.Path()]; ok {
				n++
				if imp != q {
					t.Errorf("%s imports a second check of %s", p.Path, imp.Path())
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("no module package imports another")
	}
}

// TestLoadDirAsKeepsRealPackage: a directory loaded under an existing
// module path (afalint -as) does not stand in for that package; an
// importer loaded afterwards still receives the real one.
func TestLoadDirAsKeepsRealPackage(t *testing.T) {
	l := moduleLoader(t)
	fake, err := l.LoadDir(filepath.Join("testdata", "boundary"), "repro/internal/kernel")
	if err != nil {
		t.Fatal(err)
	}
	real, err := l.Import("repro/internal/kernel")
	if err != nil {
		t.Fatal(err)
	}
	if real == fake.Types || real.Scope().Lookup("Kernel") == nil {
		t.Fatal("Import returned the fixture loaded -as repro/internal/kernel")
	}
	fio, err := l.Import("repro/internal/fio")
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range fio.Imports() {
		if imp.Path() == "repro/internal/kernel" && imp != real {
			t.Error("fio imports a package other than the real repro/internal/kernel")
		}
	}
}
