// Whole-program call graph for the reachability rules. The graph is
// built once per Run over every loaded package, from syntax plus
// go/types object resolution only (pure stdlib, same as the rest of the
// engine), and resolves Go's dynamism by creation-site attribution:
//
//   - static calls (package functions, concrete methods) resolve
//     exactly: every identifier that denotes a function adds an edge
//     from the enclosing declared function;
//   - referencing a named function as a *value* (passing a callback,
//     storing it in a struct) adds the same edge — whoever takes the
//     reference is charged with everything the referent can do,
//     wherever the value is eventually invoked;
//   - function literals are attributed to their enclosing declared
//     function, so a sink buried in a scheduled closure taints the
//     function that built the closure, not the event loop that later
//     fires it;
//   - a call through an interface method adds an edge to every module
//     method with that name whose receiver type implements the
//     interface (method sets resolved via go/types) — the one dynamic
//     dispatch creation-site attribution cannot see through.
//
// Calls through plain func values add no extra edges: the closure or
// function reference that produced the value was already charged at
// its creation site.
//
// Edges into non-module packages (time, os, math/rand, ...) are kept as
// terminal nodes: those are the sinks the reach* rules look for. Bodies
// of non-module functions are never analyzed, so e.g. fmt.Sprintf does
// not smuggle an os dependency into its callers.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Program is every loaded package plus the module-wide call graph the
// whole-program rules consult. Run builds one per invocation.
type Program struct {
	Pkgs  []*Package
	graph *callGraph
	// hot is the lazily computed hot set (hotset.go) the perf rule
	// family consults.
	hot *hotSet
}

// NewProgram assembles the call graph over pkgs. Packages outside pkgs
// (an afalint run restricted to a subtree) are simply absent from the
// graph, which narrows — never widens — what the reach rules report;
// the self-check and CI always run over the whole module.
func NewProgram(pkgs []*Package) *Program {
	return &Program{Pkgs: pkgs, graph: buildCallGraph(pkgs)}
}

// edge is one resolved call or function reference: callee plus the
// originating source position.
type edge struct {
	callee *types.Func
	pos    token.Pos
}

// callGraph is adjacency by caller. Lists are in deterministic build
// order (packages sorted, files sorted, syntax order within a file) and
// deduplicated per (caller, callee).
type callGraph struct {
	edges map[*types.Func][]edge
	// declared marks functions whose body was analyzed (module functions
	// from non-test files); traversal expands only these.
	declared map[*types.Func]bool
}

// callees returns the outgoing edges of fn, nil for sinks and
// undeclared functions.
func (g *callGraph) callees(fn *types.Func) []edge { return g.edges[fn] }

// ifaceCall records a dynamic dispatch site for the resolution pass.
type ifaceCall struct {
	caller *types.Func
	iface  *types.Interface
	name   string
	pos    token.Pos
}

func buildCallGraph(pkgs []*Package) *callGraph {
	g := &callGraph{edges: map[*types.Func][]edge{}, declared: map[*types.Func]bool{}}
	var ifaceCalls []ifaceCall

	for _, p := range pkgs {
		for _, f := range p.Files {
			if p.IsTestFile(f) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				caller, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.declared[caller] = true
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CallExpr:
						if it, name := p.ifaceCallee(n); it != nil {
							ifaceCalls = append(ifaceCalls, ifaceCall{caller, it, name, n.Pos()})
						}
					case *ast.Ident:
						// Any identifier denoting a function — call operand,
						// callback argument, struct-field value — charges the
						// enclosing function with the referent.
						if fn, ok := p.Info.Uses[n].(*types.Func); ok && fn.Pkg() != nil {
							g.addEdge(caller, fn, n.Pos())
						}
					}
					return true
				})
			}
		}
	}

	methods := moduleMethods(pkgs)
	for _, c := range ifaceCalls {
		for _, m := range methods {
			if m.fn.Name() != c.name {
				continue
			}
			if types.Implements(m.recv, c.iface) || types.Implements(types.NewPointer(m.recv), c.iface) {
				g.addEdge(c.caller, m.fn, c.pos)
			}
		}
	}
	return g
}

// addEdge appends caller→callee unless already present.
func (g *callGraph) addEdge(caller, callee *types.Func, pos token.Pos) {
	for _, e := range g.edges[caller] {
		if e.callee == callee {
			return
		}
	}
	g.edges[caller] = append(g.edges[caller], edge{callee, pos})
}

// ifaceCallee reports the interface type and method name call dispatches
// through, or (nil, "") for static calls, conversions, and builtins.
func (p *Package) ifaceCallee(call *ast.CallExpr) (*types.Interface, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil, ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, ""
	}
	if it, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
		return it, fn.Name()
	}
	return nil, ""
}

// methodEntry pairs a concrete module method with its receiver type.
type methodEntry struct {
	recv types.Type
	fn   *types.Func
}

// moduleMethods lists every method of every named type declared in
// pkgs, in deterministic (package, scope-name, method) order.
func moduleMethods(pkgs []*Package) []methodEntry {
	var out []methodEntry
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				out = append(out, methodEntry{named, named.Method(i)})
			}
		}
	}
	return out
}

// reachStep is one hop of a shortest call chain.
type reachStep struct {
	fn  *types.Func
	pos token.Pos // call site in the previous function
}

// findReach runs a breadth-first search from entry and returns the
// shortest chain (excluding entry itself) to the first callee matching
// sink, or nil when no sink is reachable. Traversal expands only
// module-declared functions, so stdlib nodes are terminals. The result
// is deterministic: adjacency order is fixed at build time.
func (g *callGraph) findReach(entry *types.Func, sink func(*types.Func) bool) []reachStep {
	type item struct {
		fn    *types.Func
		chain []reachStep
	}
	visited := map[*types.Func]bool{entry: true}
	queue := []item{{entry, nil}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range g.callees(cur.fn) {
			if visited[e.callee] {
				continue
			}
			visited[e.callee] = true
			chain := append(append([]reachStep{}, cur.chain...), reachStep{e.callee, e.pos})
			if sink(e.callee) {
				return chain
			}
			if g.declared[e.callee] {
				queue = append(queue, item{e.callee, chain})
			}
		}
	}
	return nil
}

// chainString renders a call chain "entry → helper → time.Now" with
// module-path prefixes trimmed to package names for readability.
func chainString(entry *types.Func, chain []reachStep) string {
	parts := []string{funcDisplayName(entry)}
	for _, s := range chain {
		parts = append(parts, funcDisplayName(s.fn))
	}
	return strings.Join(parts, " → ")
}

// funcDisplayName renders fn as pkgname.Name or pkgname.(Recv).Name.
func funcDisplayName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	name := fn.Pkg().Name() + "." + fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			name = fn.Pkg().Name() + ".(" + named.Obj().Name() + ")." + fn.Name()
		}
	}
	return name
}
