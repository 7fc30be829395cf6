// Package loading for afalint. Pure stdlib: packages are discovered by
// walking the module tree, parsed with go/parser, and type-checked with
// go/types. Each module package is type-checked once, and its importers
// receive that same *types.Package, so one call graph spans the
// module. An import checks only the imported library; test files are
// checked after their package's library. Standard-library imports are
// compiled from GOROOT source (importer.ForCompiler "source"), so the
// analyzer needs no build cache, network, or third-party dependency.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one directory of Go source, parsed and best-effort
// type-checked. Files contains every file in the directory — library,
// in-package test, and external (_test package) test files; rules that
// exclude tests consult IsTestFile.
type Package struct {
	Path  string // import path, e.g. "repro/internal/sim"
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	// Info is the merged type information for all files. Entries may be
	// missing when the package has type errors; rules degrade to
	// syntax-only checks in that case.
	Info *types.Info
	// Types is the checked package object (library + in-package test
	// files), the same object every module importer receives; its scope
	// feeds the method-set and enum indexes.
	Types *types.Package
	// TypeErrors collects type-check diagnostics (not lint findings).
	TypeErrors []error

	// checker is the package's one type-checker; tests and xtests hold
	// the in-package and external test files LoadDir checks last.
	checker       *types.Checker
	tests, xtests []*ast.File

	// prog is the whole-program view Run sets before rules execute.
	prog *Program
	// fg is the lazily built field-graph view (fieldgraph.go) the state
	// rule family consults.
	fg *fieldGraph
}

// IsTestFile reports whether f came from a _test.go file.
func (p *Package) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.File(f.Pos()).Name(), "_test.go")
}

// typeOf returns the type of e, or nil when it has none (a type error).
func (p *Package) typeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Loader discovers, parses, and type-checks packages of one module.
type Loader struct {
	Root    string // absolute module root (directory holding go.mod)
	ModPath string // module path from go.mod, e.g. "repro"

	fset *token.FileSet
	std  types.Importer
	// pkgs holds each module package loaded so far by import path (nil
	// while its library is being checked). Only a package loaded from
	// its own module directory enters it, so a directory loaded under
	// an existing path (afalint -as) never stands in for the real
	// package in its importers.
	pkgs map[string]*Package
}

// NewLoader returns a loader for the module rooted at root.
func NewLoader(root, modPath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Root:    root,
		ModPath: modPath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
	}
}

// FindModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func FindModule(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// LoadModule discovers every package directory under the module root
// (skipping testdata, vendor, and hidden directories) and loads each.
// The result is sorted by import path, so runs are deterministic.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != l.Root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil {
			return nil, err
		}
		path := l.ModPath
		if rel != "." {
			path = l.ModPath + "/" + filepath.ToSlash(rel)
		}
		p, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// LoadDir parses and type-checks the single directory dir as the
// package with the given import path: its library files (unless an
// importer already checked them), then its in-package test files
// added to the same checker, then its external _test package against
// the same merged Info. Tests are checked only here, never for an
// import, since an external test may import a package that imports
// its own.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	p, err := l.library(dir, path)
	if err != nil {
		return nil, err
	}
	if len(p.tests) > 0 {
		p.checker.Files(p.tests)
	}
	if len(p.xtests) > 0 {
		types.NewChecker(l.config(p), l.fset, types.NewPackage(path+"_test", ""), p.Info).Files(p.xtests)
	}
	p.tests, p.xtests = nil, nil
	return p, nil
}

// Import implements types.Importer: a module package is the one this
// loader analyzes, its library checked on first import; everything
// else is delegated to the GOROOT source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path != l.ModPath && !strings.HasPrefix(path, l.ModPath+"/") {
		return l.std.Import(path)
	}
	p, err := l.library(l.dirOf(path), path)
	if err != nil {
		return nil, err
	}
	return p.Types, nil
}

// dirOf is the directory of the module package path.
func (l *Loader) dirOf(path string) string {
	return filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")))
}

// library parses dir as the package path and type-checks its library
// files. A module package loaded from its own directory is checked
// once, and every later importer receives that check.
func (l *Loader) library(dir, path string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	own := abs == l.dirOf(path)
	if p, ok := l.pkgs[path]; own && ok {
		if p == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		return p, nil
	}
	names, err := goFilesIn(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: reading package directory %s: %w", dir, err)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go source files in %s", dir)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.fset, Types: types.NewPackage(path, "")}
	var lib []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			// The parser's error already carries file:line:col; wrap it so
			// the caller knows which load step failed rather than panicking
			// downstream on a half-parsed package.
			return nil, fmt.Errorf("lint: parsing %s: %w", path, err)
		}
		p.Files = append(p.Files, f)
		switch {
		case strings.HasSuffix(f.Name.Name, "_test"):
			p.xtests = append(p.xtests, f)
		case strings.HasSuffix(name, "_test.go"):
			p.tests = append(p.tests, f)
		default:
			lib = append(lib, f)
		}
	}
	p.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	// Check errors are accumulated through the config's Error; a
	// package with type errors still gets partial Info and
	// syntax-level rules still run.
	p.checker = types.NewChecker(l.config(p), l.fset, p.Types, p.Info)
	if own {
		l.pkgs[path] = nil // marks the check in progress
		defer func() { l.pkgs[path] = p }()
	}
	p.checker.Files(lib)
	return p, nil
}

// config is the type-checker configuration for p: module imports
// through this loader, diagnostics into p.TypeErrors.
func (l *Loader) config(p *Package) *types.Config {
	return &types.Config{
		Importer: l,
		Error:    func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
}

// goFilesIn lists the .go files directly inside dir that the go tool
// builds for this platform with no extra tags, sorted: build.Default's
// MatchFile applies //go:build lines and _GOOS/_GOARCH name suffixes,
// so a file pair split by a tag (race/!race) loads as one file, not as
// a redeclaration.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, e.Name())
		if err != nil {
			return nil, err
		}
		if ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// importNames returns the local names under which f imports path
// (usually one: the package's base name or an explicit alias).
func importNames(f *ast.File, path string) map[string]bool {
	out := map[string]bool{}
	for _, spec := range f.Imports {
		p, err := strconv.Unquote(spec.Path.Value)
		if err != nil || p != path {
			continue
		}
		switch {
		case spec.Name != nil:
			out[spec.Name.Name] = true
		default:
			out[p[strings.LastIndex(p, "/")+1:]] = true
		}
	}
	return out
}
