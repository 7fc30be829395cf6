// The afaperf rule family: per-site performance checks over the hot
// set (hotset.go). Where the determinism rules guard *what* the
// simulator computes, these guard *how fast* it can compute it: the
// engine retires millions of events per simulated second, so a single
// allocation, dynamic dispatch, or map hash on the per-event path is a
// measurable throughput tax (the 2.4× engine-throughput recovery in
// EXPERIMENTS.md came from exactly these findings).
//
// The family runs in the same afalint pass as the determinism
// contract, but unlike it may carry recorded debts in the one ledger
// (lint.baseline): a perf finding is pressure, not an invariant — a
// justified hot-path allocation is annotated
// //afalint:allow hotalloc -- <reason> and stays.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// perfRules returns the afaperf family in canonical order.
func perfRules() []Rule {
	return []Rule{
		hotallocRule{},
		hotifaceRule{},
		hotdeferRule{},
		hotappendRule{},
		hotmapRule{},
	}
}

const perfScope = "hot set (internal/)"

// ---------------------------------------------------------------------
// hotalloc: allocation per event.

// hotallocRule flags syntactic allocation sites in hot functions:
// escaping closures (a func literal capturing variables allocates on
// every evaluation), &T{} and new(T), and method values (x.M used as a
// value allocates a bound-method closure). The candidates are a
// conservative superset of what the compiler moves to the heap: a
// site escape analysis keeps on the stack is still reported, and is
// excused with //afalint:allow or the ledger.
type hotallocRule struct{}

func (hotallocRule) Name() string  { return "hotalloc" }
func (hotallocRule) Scope() string { return perfScope }

func (hotallocRule) Doc() string {
	return "no per-event allocation in hot functions: escaping closures, &T{}/new, method values"
}

func (hotallocRule) Check(p *Package) []Finding {
	var out []Finding
	for _, h := range p.hotFuncs() {
		// Func literals that are invoked on the spot compile to a direct
		// call; only literals that escape as values allocate.
		invoked := map[*ast.FuncLit]bool{}
		// Selectors in call position are dispatches, not method values.
		called := map[*ast.SelectorExpr]bool{}
		ast.Inspect(h.decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				switch fun := ast.Unparen(call.Fun).(type) {
				case *ast.FuncLit:
					invoked[fun] = true
				case *ast.SelectorExpr:
					called[fun] = true
				}
			}
			return true
		})
		ast.Inspect(h.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if invoked[n] {
					return true
				}
				if captured := p.firstCapture(n, h.decl); captured != "" {
					out = append(out, p.finding("hotalloc", n.Pos(), "closure capturing %s allocates per event in %s (%s); bind the callback once or use a pooled carrier",
						captured, funcDisplayName(h.fn), h.info.via()))
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
						out = append(out, p.finding("hotalloc", n.Pos(), "&%s{} allocates per event in %s (%s); pool or reuse the object",
							types.ExprString(cl.Type), funcDisplayName(h.fn), h.info.via()))
					}
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "new" && p.isBuiltin(id) && len(n.Args) == 1 {
					out = append(out, p.finding("hotalloc", n.Pos(), "new(%s) allocates per event in %s (%s); pool or reuse the object",
						types.ExprString(n.Args[0]), funcDisplayName(h.fn), h.info.via()))
				}
			case *ast.SelectorExpr:
				if called[n] {
					return true
				}
				fn, ok := p.Info.Uses[n.Sel].(*types.Func)
				if !ok {
					return true
				}
				sig, ok := fn.Type().(*types.Signature)
				if !ok || sig.Recv() == nil {
					return true
				}
				// A method *expression* (T.M) is a plain function; only a
				// method *value* (x.M with x an operand) binds a receiver.
				if tv, found := p.Info.Types[n.X]; found && tv.IsType() {
					return true
				}
				out = append(out, p.finding("hotalloc", n.Pos(), "method value %s.%s allocates a bound-method closure per event in %s (%s); bind it once at construction",
					types.ExprString(n.X), n.Sel.Name, funcDisplayName(h.fn), h.info.via()))
			}
			return true
		})
	}
	return out
}

// firstCapture returns the name of the first variable lit captures from
// its enclosing function, or "" when the literal is capture-free (and
// therefore compiled as a static function, no allocation).
func (p *Package) firstCapture(lit *ast.FuncLit, encl *ast.FuncDecl) string {
	capture := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if capture != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if posWithin(v.Pos(), encl) && !posWithin(v.Pos(), lit) {
			capture = v.Name()
		}
		return true
	})
	return capture
}

// isBuiltin reports whether id resolves to a Go builtin (new, make,
// append, delete, ...) rather than a shadowing declaration.
func (p *Package) isBuiltin(id *ast.Ident) bool {
	_, ok := p.Info.Uses[id].(*types.Builtin)
	return ok
}

// ---------------------------------------------------------------------
// hotiface: dynamic dispatch with a statically known concrete type.

// hotifaceRule flags interface method calls and type assertions in hot
// functions when the interface variable is assigned exactly once, from
// a concrete type, inside the same function — the compiler usually
// cannot devirtualize across the event loop's callback indirection,
// but the author can: use the concrete type directly.
type hotifaceRule struct{}

func (hotifaceRule) Name() string  { return "hotiface" }
func (hotifaceRule) Scope() string { return perfScope }

func (hotifaceRule) Doc() string {
	return "no interface dispatch or type assertion in hot functions when the concrete type is statically known in the same function"
}

func (hotifaceRule) Check(p *Package) []Finding {
	var out []Finding
	for _, h := range p.hotFuncs() {
		known := p.knownConcrete(h.decl)
		if len(known) == 0 {
			continue
		}
		ast.Inspect(h.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := ast.Unparen(sel.X).(*ast.Ident)
				if !ok {
					return true
				}
				if t := known[p.objOf(id)]; t != nil {
					out = append(out, p.finding("hotiface", n.Pos(),
						"interface call %s.%s in %s (%s) dispatches dynamically though the concrete type is statically %s; use the concrete type",
						id.Name, sel.Sel.Name, funcDisplayName(h.fn), h.info.via(), t))
				}
			case *ast.TypeAssertExpr:
				id, ok := ast.Unparen(n.X).(*ast.Ident)
				if !ok {
					return true
				}
				if t := known[p.objOf(id)]; t != nil {
					out = append(out, p.finding("hotiface", n.Pos(),
						"type assertion on %s in %s (%s) though its concrete type is statically %s; use the concrete type",
						id.Name, funcDisplayName(h.fn), h.info.via(), t))
				}
			}
			return true
		})
	}
	return out
}

// objOf resolves an identifier to its variable object (use or def).
func (p *Package) objOf(id *ast.Ident) *types.Var {
	if v, ok := p.Info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := p.Info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}

// knownConcrete maps each interface-typed variable declared in fd's
// body to its concrete type, when the variable is assigned exactly once
// and from a non-interface, non-nil expression.
func (p *Package) knownConcrete(fd *ast.FuncDecl) map[*types.Var]types.Type {
	type state struct {
		assigns int
		t       types.Type
	}
	seen := map[*types.Var]*state{}
	note := func(lhs *ast.Ident, rhs ast.Expr) {
		v := p.objOf(lhs)
		if v == nil || !posWithin(v.Pos(), fd.Body) || !types.IsInterface(v.Type()) {
			return
		}
		st := seen[v]
		if st == nil {
			st = &state{}
			seen[v] = st
		}
		st.assigns++
		t := p.typeOf(rhs)
		if t == nil || types.IsInterface(t) || isUntypedNil(t) {
			st.t = nil
			return
		}
		if st.assigns == 1 {
			st.t = t
		} else {
			st.t = nil
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					note(id, n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Values) != len(n.Names) {
				return true
			}
			for i, name := range n.Names {
				note(name, n.Values[i])
			}
		}
		return true
	})
	out := map[*types.Var]types.Type{}
	for v, st := range seen { //afalint:allow maporder -- map-to-map filter; no ordering escapes
		if st.assigns == 1 && st.t != nil {
			out[v] = st.t
		}
	}
	return out
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// ---------------------------------------------------------------------
// hotdefer: defer on the per-event path.

// hotdeferRule flags defer statements in hot functions: defer has
// fixed per-call bookkeeping the event loop pays millions of times,
// and sim-core functions are short and single-exit enough to
// restructure.
type hotdeferRule struct{}

func (hotdeferRule) Name() string  { return "hotdefer" }
func (hotdeferRule) Scope() string { return perfScope }

func (hotdeferRule) Doc() string {
	return "no defer in hot functions; the per-call bookkeeping multiplies by events per second"
}

func (hotdeferRule) Check(p *Package) []Finding {
	var out []Finding
	for _, h := range p.hotFuncs() {
		ast.Inspect(h.decl.Body, func(n ast.Node) bool {
			if d, ok := n.(*ast.DeferStmt); ok {
				out = append(out, p.finding("hotdefer", d.Pos(),
					"defer in hot function %s (%s); restructure to a direct call at each exit",
					funcDisplayName(h.fn), h.info.via()))
			}
			return true
		})
	}
	return out
}

// ---------------------------------------------------------------------
// hotappend: unbounded growth in a loop.

// hotappendRule flags append-in-a-loop to a slice that was declared in
// the same function without capacity: every growth step reallocates
// and copies, per event. Slices made with make(T, len, cap), and
// slices owned elsewhere (parameters, fields — their capacity is the
// owner's business), are exempt.
type hotappendRule struct{}

func (hotappendRule) Name() string  { return "hotappend" }
func (hotappendRule) Scope() string { return perfScope }

func (hotappendRule) Doc() string {
	return "no append inside a loop in hot functions to a locally declared slice without preallocated capacity"
}

func (hotappendRule) Check(p *Package) []Finding {
	var out []Finding
	for _, h := range p.hotFuncs() {
		prealloc := p.localSlices(h.decl)
		seen := map[token.Pos]bool{}
		ast.Inspect(h.decl.Body, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				body = loop.Body
			case *ast.RangeStmt:
				body = loop.Body
			default:
				return true
			}
			ast.Inspect(body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok || seen[call.Pos()] {
					return true
				}
				id, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok || id.Name != "append" || !p.isBuiltin(id) || len(call.Args) == 0 {
					return true
				}
				target, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
				if !ok {
					return true
				}
				hasCap, local := prealloc[p.objOf(target)]
				if !local || hasCap {
					return true
				}
				seen[call.Pos()] = true
				out = append(out, p.finding("hotappend", call.Pos(),
					"append to %s grows inside a loop in %s (%s); preallocate with make(..., 0, n) or reuse a buffer",
					target.Name, funcDisplayName(h.fn), h.info.via()))
				return true
			})
			return true
		})
	}
	return out
}

// localSlices maps slice variables declared inside fd's body to
// whether their initializer preallocates capacity (make with an
// explicit cap argument).
func (p *Package) localSlices(fd *ast.FuncDecl) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	note := func(lhs *ast.Ident, rhs ast.Expr) {
		v := p.objOf(lhs)
		if v == nil || !posWithin(v.Pos(), fd.Body) {
			return
		}
		if _, ok := v.Type().Underlying().(*types.Slice); !ok {
			return
		}
		if rhs != nil {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "make" && p.isBuiltin(id) && len(call.Args) >= 3 {
					out[v] = true
					return
				}
			}
		}
		if !out[v] {
			out[v] = false
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					note(id, n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				var rhs ast.Expr
				if i < len(n.Values) {
					rhs = n.Values[i]
				}
				note(name, rhs)
			}
		}
		return true
	})
	return out
}

// ---------------------------------------------------------------------
// hotmap: hashing on the per-event path.

// hotmapRule flags map operations in hot functions — iteration,
// indexed access, and delete. Every one hashes; iteration additionally
// forces the randomized-order machinery. Hot-path state wants dense
// integer-indexed slices (CPU ids, SSD ids, queue ids are all small
// ints here).
type hotmapRule struct{}

func (hotmapRule) Name() string  { return "hotmap" }
func (hotmapRule) Scope() string { return perfScope }

func (hotmapRule) Doc() string {
	return "no map iteration, lookup, or delete in hot functions; per-event state wants dense slice indexing"
}

func (hotmapRule) Check(p *Package) []Finding {
	var out []Finding
	for _, h := range p.hotFuncs() {
		ast.Inspect(h.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if p.isMapType(n.X) {
					out = append(out, p.finding("hotmap", n.Pos(),
						"map iteration in hot function %s (%s); use a slice or pre-sorted key list",
						funcDisplayName(h.fn), h.info.via()))
				}
			case *ast.IndexExpr:
				if p.isMapType(n.X) {
					out = append(out, p.finding("hotmap", n.Pos(),
						"map access in hot function %s (%s); hashing per event — use dense slice indexing",
						funcDisplayName(h.fn), h.info.via()))
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" && p.isBuiltin(id) {
					out = append(out, p.finding("hotmap", n.Pos(),
						"map delete in hot function %s (%s); hashing per event — use dense slice indexing",
						funcDisplayName(h.fn), h.info.via()))
				}
			}
			return true
		})
	}
	return out
}

// isMapType reports whether e's static type is a map.
func (p *Package) isMapType(e ast.Expr) bool {
	t := p.typeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
