package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The reach* rules are the whole-program complement of wallclock and
// globalrand: those flag a nondeterministic *call site* wherever it
// is, these flag a sim-core *entry point* from which such a site is
// transitively reachable through the module call graph. The division
// of labor is deliberate:
//
//   - a direct time.Now in a helper is the wallclock rule's finding,
//     at the exact call site;
//   - a sim-core exported function that reaches that helper through
//     two layers of calls — or reaches one that was locally excused
//     with //afalint:allow wallclock (legal for CLI self-timing, fatal
//     inside the event loop) — is a reach finding, at the entry point,
//     with the full call chain in the message.
//
// Direct (one-hop) chains to sinks another rule already reports are
// skipped, so one bug yields one finding.

// reachwallclockRule flags sim-core exported entry points from which a
// wall-clock read (time.Now, Sleep, timers) or a host side effect (any
// os package function — files, env, process state) is reachable.
type reachwallclockRule struct{}

func (reachwallclockRule) Name() string { return "reachwallclock" }

func (reachwallclockRule) Doc() string {
	return "no call chain from a sim-core exported function to time.Now/Sleep/timers or os.* host state, however indirect"
}

func (reachwallclockRule) Check(p *Package) []Finding {
	return checkReach(p, "reachwallclock", func(fn *types.Func) (what string, direct bool) {
		switch pkgPathOf(fn) {
		case "time":
			if wallclockBanned[fn.Name()] {
				// One-hop chains are the wallclock rule's finding.
				return "the wall clock", true
			}
		case "os":
			return "host state (os package)", false
		}
		return "", false
	})
}

// reachrandRule flags sim-core exported entry points from which a
// non-reproducible random source (math/rand, math/rand/v2,
// crypto/rand) is reachable. Seeded repro/internal/rng streams are the
// sanctioned source and are not sinks.
type reachrandRule struct{}

func (reachrandRule) Name() string { return "reachrand" }

func (reachrandRule) Doc() string {
	return "no call chain from a sim-core exported function to math/rand, math/rand/v2, or crypto/rand"
}

func (reachrandRule) Check(p *Package) []Finding {
	return checkReach(p, "reachrand", func(fn *types.Func) (what string, direct bool) {
		switch pkgPathOf(fn) {
		case "math/rand", "math/rand/v2":
			// A one-hop chain means the entry's own file imports math/rand,
			// which globalrand already reports.
			return "unseeded global rand", true
		case "crypto/rand":
			return "crypto/rand (never seed-reproducible)", false
		}
		return "", false
	})
}

// checkReach walks every exported entry point of a sim-core package and
// reports the shortest call chain to a sink. sink classifies a callee;
// direct=true marks sink families whose one-hop chains are another
// rule's responsibility.
func checkReach(p *Package, rule string, sink func(*types.Func) (string, bool)) []Finding {
	if !isSimCore(p.Path) || p.prog == nil {
		return nil
	}
	var out []Finding
	for _, entry := range p.exportedFuncs() {
		chain := p.prog.graph.findReach(entry.fn, func(fn *types.Func) bool {
			what, _ := sink(fn)
			return what != ""
		})
		if chain == nil {
			continue
		}
		what, direct := sink(chain[len(chain)-1].fn)
		if direct && len(chain) == 1 {
			continue
		}
		out = append(out, p.finding(rule, entry.pos,
			"%s reaches %s: %s", funcDisplayName(entry.fn), what, chainString(entry.fn, chain)))
	}
	return out
}

// entryPoint is one exported function or method with its declaration
// position (where the finding is anchored, so an //afalint:allow on the
// declaration line suppresses it).
type entryPoint struct {
	fn  *types.Func
	pos token.Pos
}

// exportedFuncs lists the package's exported functions and exported
// methods on exported types, in source order — the surface another
// package can call into, i.e. the roots of the reach analysis.
func (p *Package) exportedFuncs() []entryPoint {
	var out []entryPoint
	for _, f := range p.Files {
		if p.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			if fd.Recv != nil && !exportedRecv(fd.Recv) {
				continue
			}
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				out = append(out, entryPoint{fn, fd.Name.Pos()})
			}
		}
	}
	return out
}

// exportedRecv reports whether a method receiver names an exported type.
func exportedRecv(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// pkgPathOf returns fn's package import path, "" for builtins.
func pkgPathOf(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}
