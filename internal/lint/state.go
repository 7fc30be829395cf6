// The state-integrity rule family: must-assign field coverage for
// pooled objects, reset methods, and snapshots, over the field graph
// built in fieldgraph.go.
//
// The contract (DESIGN.md §10): every figure rests on byte-identical
// reruns, and the hot-path pooling work multiplies *reused mutable
// state* — freelists in sim.Engine, the kernel, irq, and
// fio.Multiplexer, plus Reset()/Snapshot() methods in stats, nand, and
// health. A pooled object whose recycle path misses one field is a
// cross-I/O state leak that silently breaks determinism the day
// someone adds a field. The rules:
//
//   - resetcover:    pooled types (structural freelist detection plus
//     the //afalint:pooled marker) and types with Reset()/reset()
//     methods must definitely assign every mutable field on the
//     recycle path; the missed field is named.
//   - snapshotcover: Snapshot()/Clone()-shaped methods must copy every
//     field of the returned struct — the groundwork for afasimd's
//     snapshot/branch contract.
//   - globalmut:     no package-level mutable state in sim-core
//     packages; it breaks per-job isolation in runner.Map and future
//     snapshot branching.
//   - poolescape:    a pooled object's pointer must not be used past
//     the statement that released it back to the freelist
//     (use-after-recycle).
//
// The family runs in the one afalint pass; its accepted debts sit in
// the shared ledger (lint.baseline). A field that intentionally survives recycling
// is annotated //afalint:sticky -- <reason> on its declaration.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// stateRules returns the state-integrity family in canonical order.
func stateRules() []Rule {
	return []Rule{
		resetcoverRule{},
		snapshotcoverRule{},
		globalmutRule{},
		poolescapeRule{},
	}
}

const stateScope = "sim-core + stats (internal/)"

// isStateScope reports whether path is a sim-core package or
// internal/stats — the packages whose object state feeds figures and
// must survive pooling, resets, and snapshots intact.
func isStateScope(path string) bool {
	if isSimCore(path) {
		return true
	}
	if !isInternal(path) {
		return false
	}
	rest := path[strings.LastIndex(path, "internal/")+len("internal/"):]
	return rest == "stats"
}

// ---------------------------------------------------------------------
// resetcover: the recycle path must reinitialize every mutable field.

type resetcoverRule struct{}

func (resetcoverRule) Name() string  { return "resetcover" }
func (resetcoverRule) Scope() string { return stateScope }

func (resetcoverRule) Doc() string {
	return "pooled types and Reset() methods must definitely assign every mutable field on the recycle path; exempt a surviving field with //afalint:sticky"
}

func (resetcoverRule) Check(p *Package) []Finding {
	if !isStateScope(p.Path) {
		return nil
	}
	g := p.fieldGraph()
	var out []Finding
	pooled := map[*types.Named]bool{}
	for _, pi := range g.pools {
		pooled[pi.elem] = true
		cov := assignSet{}
		for _, fd := range pi.acquireFns {
			unionInto(cov, g.mustAssign(fd, pi.elem, modeReset, false))
		}
		for _, fd := range pi.releaseFns {
			unionInto(cov, g.mustAssign(fd, pi.elem, modeReset, false))
		}
		for _, fd := range g.resetMethods(pi.elem) {
			unionInto(cov, g.mustAssign(fd, pi.elem, modeReset, false))
		}
		// An acquire function that only hands the object out (getReq)
		// often leaves initialization to its callers: credit whatever
		// every same-package direct caller of an acquire fn assigns.
		if callers := g.callersOf(pi.acquireFns); len(callers) > 0 {
			var sets []assignSet
			for _, cfd := range callers {
				sets = append(sets, g.mustAssign(cfd, pi.elem, modeReset, false))
			}
			unionInto(cov, intersectSets(sets))
		}
		for _, leaf := range g.leafEntries(pi.elem) {
			if leaf.Sticky || cov.covers(leaf.Path) || !g.mutable(pi.elem, leaf.Path) {
				continue
			}
			out = append(out, p.finding("resetcover", pi.anchor,
				"pooled %s is recycled without reinitializing field %s; stale state leaks across reuses — assign it on the acquire/release path or mark it //afalint:sticky",
				pi.elem.Obj().Name(), leaf.Path))
		}
	}
	// Non-pooled types with an explicit Reset()/reset() method: the
	// method itself (plus same-type helpers it calls) is the whole
	// recycle path.
	for _, ts := range g.typeSpecs {
		tn, ok := p.Info.Defs[ts.Name].(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || g.localNamedStruct(named) != named || pooled[named] {
			continue
		}
		methods := g.resetMethods(named)
		if len(methods) == 0 {
			continue
		}
		cov := assignSet{}
		for _, fd := range methods {
			unionInto(cov, g.mustAssign(fd, named, modeReset, false))
		}
		for _, leaf := range g.leafEntries(named) {
			if leaf.Sticky || cov.covers(leaf.Path) || !g.mutable(named, leaf.Path) {
				continue
			}
			out = append(out, p.finding("resetcover", methods[0].Name.Pos(),
				"%s leaves field %s unassigned on some path; stale state survives reset — assign it on every path or mark it //afalint:sticky",
				funcDisplayName(g.fnOf[methods[0]]), leaf.Path))
		}
	}
	return out
}

// resetMethods returns named's zero-parameter Reset/reset methods in
// declaration order.
func (g *fieldGraph) resetMethods(named *types.Named) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, fd := range g.decls {
		if fd.Recv == nil || (fd.Name.Name != "Reset" && fd.Name.Name != "reset") {
			continue
		}
		if fd.Type.Params != nil && len(fd.Type.Params.List) > 0 {
			continue
		}
		if len(fd.Recv.List) == 1 && g.localNamedStruct(g.p.typeOf(fd.Recv.List[0].Type)) == named {
			out = append(out, fd)
		}
	}
	return out
}

// callersOf returns the same-package functions with a direct call-graph
// edge into one of fns, in declaration order, excluding fns themselves.
func (g *fieldGraph) callersOf(fns []*ast.FuncDecl) []*ast.FuncDecl {
	if g.p.prog == nil {
		return nil
	}
	targets := map[*types.Func]bool{}
	self := map[*ast.FuncDecl]bool{}
	for _, fd := range fns {
		self[fd] = true
		if fn := g.fnOf[fd]; fn != nil {
			targets[fn] = true
		}
	}
	var out []*ast.FuncDecl
	for _, fd := range g.decls {
		if self[fd] {
			continue
		}
		fn := g.fnOf[fd]
		if fn == nil {
			continue
		}
		for _, e := range g.p.prog.graph.callees(fn) {
			if targets[e.callee] {
				out = append(out, fd)
				break
			}
		}
	}
	return out
}

func unionInto(dst, src assignSet) {
	for k := range src { //afalint:allow maporder -- set union into a set; no ordering escapes
		dst[k] = true
	}
}

// ---------------------------------------------------------------------
// snapshotcover: a snapshot must copy every field.

type snapshotcoverRule struct{}

func (snapshotcoverRule) Name() string  { return "snapshotcover" }
func (snapshotcoverRule) Scope() string { return stateScope }

func (snapshotcoverRule) Doc() string {
	return "Snapshot()/Clone() methods returning a local struct must copy every non-sticky field; a keyed literal or built-up value that misses one is named"
}

func (snapshotcoverRule) Check(p *Package) []Finding {
	if !isStateScope(p.Path) {
		return nil
	}
	g := p.fieldGraph()
	var out []Finding
	for _, fd := range g.decls {
		name := fd.Name.Name
		if fd.Recv == nil || (name != "Snapshot" && name != "Clone" && name != "snapshot" && name != "clone") {
			continue
		}
		if fd.Type.Results == nil || len(fd.Type.Results.List) != 1 || len(fd.Type.Results.List[0].Names) > 1 {
			continue
		}
		snap := g.localNamedStruct(p.typeOf(fd.Type.Results.List[0].Type))
		if snap == nil {
			continue
		}
		// When the method clones its own receiver type, the receiver is
		// the *source*: reads from it must not count as assignments to
		// the snapshot.
		excludeRecv := len(fd.Recv.List) == 1 && g.localNamedStruct(p.typeOf(fd.Recv.List[0].Type)) == snap
		methodSet := g.mustAssign(fd, snap, modeSnapshot, excludeRecv)
		display := funcDisplayName(g.fnOf[fd])
		for _, ret := range returnsOf(fd) {
			if len(ret.Results) != 1 {
				continue
			}
			expr := ast.Unparen(ret.Results[0])
			if ue, ok := expr.(*ast.UnaryExpr); ok && ue.Op == token.AND {
				expr = ast.Unparen(ue.X)
			}
			var set assignSet
			switch e := expr.(type) {
			case *ast.CompositeLit:
				set = assignSet{}
				w := &maWalk{g: g, typ: snap, mode: modeSnapshot}
				w.litAssign(e, set)
			case *ast.Ident:
				v := p.objOf(e)
				if v == nil || g.localNamedStruct(v.Type()) != snap {
					continue
				}
				set = methodSet
			default:
				// Returning t.cur, a call result, etc.: the value was
				// assembled elsewhere — nothing to prove here.
				continue
			}
			for _, leaf := range g.leafEntries(snap) {
				if leaf.Sticky || set.covers(leaf.Path) {
					continue
				}
				out = append(out, p.finding("snapshotcover", ret.Pos(),
					"%s never sets field %s; the snapshot misses state and a restore/compare over it is silently partial — copy the field or mark it //afalint:sticky",
					display, leaf.Path))
			}
		}
	}
	return out
}

// returnsOf collects fd's return statements in syntax order, skipping
// returns that belong to nested function literals.
func returnsOf(fd *ast.FuncDecl) []*ast.ReturnStmt {
	var out []*ast.ReturnStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			out = append(out, n)
		}
		return true
	})
	return out
}

// ---------------------------------------------------------------------
// globalmut: no package-level mutable state in sim-core.

type globalmutRule struct{}

func (globalmutRule) Name() string  { return "globalmut" }
func (globalmutRule) Scope() string { return "sim-core packages" }

func (globalmutRule) Doc() string {
	return "no package-level var in sim-core packages; shared mutable state breaks per-job isolation in runner.Map and snapshot branching — use a const or hang it off a struct"
}

func (globalmutRule) Check(p *Package) []Finding {
	if !isSimCore(p.Path) {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		if p.IsTestFile(f) {
			continue
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						// Blank assignments (interface conformance checks)
						// hold no state.
						continue
					}
					out = append(out, p.finding("globalmut", name.Pos(),
						"package-level variable %s is mutable shared state in a sim-core package; it escapes per-job isolation (runner.Map) and any future snapshot/branch — make it a const or move it onto a struct",
						name.Name))
				}
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------
// poolescape: no use of a pooled pointer after its release.

type poolescapeRule struct{}

func (poolescapeRule) Name() string  { return "poolescape" }
func (poolescapeRule) Scope() string { return stateScope }

func (poolescapeRule) Doc() string {
	return "a pooled object's pointer must not be read or written after the append that released it to the freelist; the next acquire may already own it"
}

func (poolescapeRule) Check(p *Package) []Finding {
	if !isStateScope(p.Path) {
		return nil
	}
	g := p.fieldGraph()
	var out []Finding
	for _, pi := range g.pools {
		for _, rec := range pi.releases {
			if rec.arg == nil {
				continue
			}
			list := containingList(rec.fd.Body, rec.stmt)
			idx := -1
			for i, s := range list {
				if s == ast.Stmt(rec.stmt) {
					idx = i
					break
				}
			}
			if idx < 0 {
				continue
			}
			for _, s := range list[idx+1:] {
				rebinds := map[*ast.Ident]bool{}
				ast.Inspect(s, func(n ast.Node) bool {
					if as, ok := n.(*ast.AssignStmt); ok {
						for _, l := range as.Lhs {
							if id, ok := ast.Unparen(l).(*ast.Ident); ok {
								rebinds[id] = true
							}
						}
					}
					return true
				})
				ast.Inspect(s, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok || rebinds[id] {
						return true
					}
					if p.objOf(id) == rec.arg {
						out = append(out, p.finding("poolescape", id.Pos(),
							"pooled *%s %s is used after its release back to the pool (use-after-recycle); the next acquire may already own it — release last, or copy what you need first",
							pi.elem.Obj().Name(), id.Name))
					}
					return true
				})
			}
		}
	}
	return out
}

// containingList returns the innermost statement list (block, case, or
// comm clause body) that directly contains target.
func containingList(body *ast.BlockStmt, target ast.Stmt) []ast.Stmt {
	var found []ast.Stmt
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			return true
		}
		for _, s := range list {
			if s == target {
				found = list
				return false
			}
		}
		return true
	})
	return found
}
