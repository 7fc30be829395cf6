package lint

import (
	"go/ast"
	"go/types"
)

// rngstreamRule polices rng-stream ownership at the orchestration
// boundary (DESIGN.md §7): the byte-identical serial/parallel guarantee
// of runner.Map holds only because every job builds all of its own
// mutable state — including every *rng.Stream it draws from — inside
// the job closure. A stream captured from the enclosing scope is
// mutated from multiple worker goroutines in pool-scheduling order, so
// the draw sequence (and therefore every latency figure downstream)
// varies run to run; a stream stored into package state escapes the job
// and couples later runs to pool timing the same way.
//
// The rule examines every function literal passed as the worker of a
// runner.Map call and reports:
//
//   - any use of a Stream-typed variable declared outside the literal
//     (captured local or package-level), and
//   - any assignment inside the literal that stores a Stream into a
//     package-level variable.
//
// Workers passed as named functions rather than literals cannot capture
// locals by construction and are not inspected further.
type rngstreamRule struct{}

func (rngstreamRule) Name() string { return "rngstream" }

func (rngstreamRule) Doc() string {
	return "an *rng.Stream used inside a runner.Map job must be created inside the job closure and must not escape into package state"
}

func (rngstreamRule) Check(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !p.isRunnerMapCall(call) || len(call.Args) == 0 {
				return true
			}
			worker, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
			if !ok {
				return true
			}
			out = append(out, p.checkWorkerStreams(worker)...)
			return true
		})
	}
	return out
}

// isRunnerMapCall reports whether call invokes internal/runner's Map.
func (p *Package) isRunnerMapCall(call *ast.CallExpr) bool {
	fun := ast.Unparen(call.Fun)
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.SelectorExpr:
		id = f.Sel
	case *ast.IndexExpr: // explicit instantiation runner.Map[S, R](...)
		if sel, ok := ast.Unparen(f.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	case *ast.IndexListExpr:
		if sel, ok := ast.Unparen(f.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	}
	if id == nil {
		return false
	}
	fn, ok := p.Info.Uses[id].(*types.Func)
	return ok && fn.Name() == "Map" && fn.Pkg() != nil && isOrchestration(fn.Pkg().Path())
}

// checkWorkerStreams inspects one worker literal for stream captures
// and stream escapes: a plain identifier of stream type declared
// outside the literal (captured local, package var), or a stream-typed
// field path rooted in outside state — which covers both reading a
// stream out of package/captured state and storing a job-owned stream
// into it (the LHS of `pkgState.s = jobStream` is such a path).
func (p *Package) checkWorkerStreams(worker *ast.FuncLit) []Finding {
	var out []Finding
	inside := func(v *types.Var) bool {
		return v.Pos() >= worker.Pos() && v.Pos() <= worker.End()
	}
	ast.Inspect(worker.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			v, ok := p.Info.Uses[n].(*types.Var)
			if !ok || v.IsField() || !isRNGStream(v.Type()) || inside(v) {
				return true
			}
			if packageLevel(v) {
				out = append(out, p.finding("rngstream", n.Pos(),
					"package-level rng stream %s used inside a runner.Map job; every job must own its streams", v.Name()))
			} else {
				out = append(out, p.finding("rngstream", n.Pos(),
					"rng stream %s captured from outside the runner.Map job closure; derive it inside the job", v.Name()))
			}
		case *ast.SelectorExpr:
			if !isRNGStream(p.typeOf(n)) {
				return true
			}
			base := baseIdent(n.X)
			if base == nil {
				return true
			}
			v, ok := p.Info.Uses[base].(*types.Var)
			if !ok || inside(v) {
				return true
			}
			what := "state captured from outside the runner.Map job closure"
			if packageLevel(v) {
				what = "package state"
			}
			out = append(out, p.finding("rngstream", n.Pos(),
				"rng stream %s.%s lives in %s; a job must create and keep its own streams", v.Name(), n.Sel.Name, what))
		}
		return true
	})
	return out
}

// packageLevel reports whether v is declared at package scope.
func packageLevel(v *types.Var) bool {
	return v.Parent() != nil && v.Parent().Parent() == types.Universe
}

// isRNGStream reports whether t is rng.Stream or *rng.Stream from
// internal/rng.
func isRNGStream(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Stream" && obj.Pkg() != nil &&
		isInternal(obj.Pkg().Path()) && pathTail(obj.Pkg().Path()) == "rng"
}

// baseIdent unwraps selectors and index expressions to the root
// identifier of an assignable expression (x.y[i].z → x).
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			return t
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return nil
		}
	}
}
