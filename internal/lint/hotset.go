// Hot-set computation for the afaperf rule family. The hot set is the
// static over-approximation of "code that runs inside the event loop or
// on a per-I/O completion path" — the code whose per-call costs
// multiply by millions of events per simulated second, where an
// allocation or a dynamic dispatch is a measurable throughput tax
// (DESIGN.md §8, "Performance contract").
//
// Roots come from two sources:
//
//   - anchors: functions that *are* the loop or a per-I/O entry —
//     sim.(Engine).Step/Run/RunUntil, stats.(Histogram).Record,
//     nvme.(Controller).Submit/SubmitTo, kernel.(Kernel).SubmitIO/SubmitIOTo — matched by
//     (package-path tail, receiver, name) so fixtures loaded with
//     `-as repro/internal/sim` participate;
//   - scheduler callers: any function with a call-graph edge to a
//     scheduling primitive (sim.(Engine).Schedule/ScheduleAt,
//     (Timer).Arm/ArmAt, sim.NewTicker, sched.(Task).Exec,
//     sched.(CPU).Steal). Creation-site attribution folds a scheduled closure's callees into the function
//     that built the closure, so charging that function is the only way
//     to see inside the callback. Constructors (New*/Start*/init) are
//     exempt from this source: they arm timers once at setup, and their
//     own bodies never run per event. They still become hot if a hot
//     function calls them.
//
// Everything reachable from a root through the module call graph is
// hot, with the shortest root chain recorded so findings can explain
// *why* a function is hot ("hot via sim.(Engine).Step → ...").
//
// The over-approximation is deliberate: a function that schedules work
// may also run cold setup code, and a shared helper called from both a
// hot and a cold path is analyzed as hot. False positives are absorbed
// by //afalint:allow annotations or the lint.baseline ledger.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotSpec identifies one module function by package-path tail, receiver
// type name ("" for plain functions), and function name. Matching by
// path *tail* keeps fixtures loaded under synthetic import paths in
// scope.
type hotSpec struct {
	pkg, recv, name string
}

// hotAnchors are the functions that are themselves the event loop or a
// per-I/O path: the roots everything else is measured from.
var hotAnchors = []hotSpec{
	{"sim", "Engine", "Step"},
	{"sim", "Engine", "Run"},
	{"sim", "Engine", "RunUntil"},
	{"stats", "Histogram", "Record"},
	{"nvme", "Controller", "Submit"},
	{"kernel", "Kernel", "SubmitIO"},
	// The pointer-form submit paths the by-value Submit/SubmitIO adapt;
	// anchored on their own so they stay hot once the adapters go.
	{"nvme", "Controller", "SubmitTo"},
	{"kernel", "Kernel", "SubmitIOTo"},
	// The open-loop tenant multiplexer's per-slot and per-arrival entry
	// points. tickSlot would be rooted anyway through its Timer.ArmAt
	// re-arm, but the anchor keeps the wheel hot even if the re-arm
	// strategy changes; submitArrival is the admitted-arrival submit
	// path, anchored so its callees carry a direct provenance chain.
	{"fio", "Multiplexer", "tickSlot"},
	{"fio", "Multiplexer", "submitArrival"},
	// The low-latency tier's per-I/O entry points (PR 10): the CQ poll
	// spin loop (runs once per PollCheck quantum while any spin-mode job
	// has I/O in flight) and the tenant-owned queue pair's userspace
	// submit path. Both would be rooted transitively, but anchoring them
	// keeps the whole polling/passthrough path hot even if the engine
	// wiring above them changes.
	{"fio", "Job", "pollSpin"},
	{"nvme", "QueuePair", "Submit"},
}

// hotSchedulers are the primitives that accept a callback which later
// fires inside the event loop. A function referencing one of these has
// handed the engine work to run per event, so it (and, through
// creation-site attribution, its closures) is analyzed as hot.
var hotSchedulers = []hotSpec{
	{"sim", "Engine", "Schedule"},
	{"sim", "Engine", "ScheduleAt"},
	{"sim", "Timer", "Arm"},
	{"sim", "Timer", "ArmAt"},
	{"sim", "", "NewTicker"},
	{"sched", "Task", "Exec"},
	{"sched", "CPU", "Steal"},
}

// funcSpec renders fn as its (package tail, receiver, name) triple.
func funcSpec(fn *types.Func) hotSpec {
	s := hotSpec{name: fn.Name()}
	if pkg := fn.Pkg(); pkg != nil {
		path := pkg.Path()
		s.pkg = path[strings.LastIndex(path, "/")+1:]
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			s.recv = named.Obj().Name()
		}
	}
	return s
}

func matchesSpec(fn *types.Func, specs []hotSpec) bool {
	got := funcSpec(fn)
	for _, s := range specs {
		if s == got {
			return true
		}
	}
	return false
}

// setupExempt reports whether fn is a construction/startup function
// whose scheduler references arm periodic work once rather than per
// event (see package comment). The prefixes match case-insensitively:
// unexported startTick/startBalancer helpers are setup exactly like
// their exported New/Start counterparts. A new*/start* helper that
// really does sit on a per-event path is still analyzed as hot — the
// exemption only stops it being a root, and reachability from a true
// root re-adds it with the chain explaining why.
func setupExempt(fn *types.Func) bool {
	name := strings.ToLower(fn.Name())
	return name == "init" || strings.HasPrefix(name, "new") || strings.HasPrefix(name, "start")
}

// hotInfo records why one function is hot: the root it was reached
// from and the shortest chain from that root (nil when fn is itself a
// root).
type hotInfo struct {
	root  *types.Func
	chain []reachStep
}

// via renders the provenance for finding messages: the root alone for
// roots, the full shortest chain otherwise.
func (h *hotInfo) via() string {
	if len(h.chain) == 0 {
		return "hot-set root " + funcDisplayName(h.root)
	}
	return "hot via " + chainString(h.root, h.chain)
}

// hotSet maps every hot module function to its provenance.
type hotSet struct {
	funcs map[*types.Func]*hotInfo
}

// HotSet computes (once per Program) the set of functions reachable
// from the event loop and per-I/O roots.
func (p *Program) HotSet() *hotSet {
	if p.hot != nil {
		return p.hot
	}
	hs := &hotSet{funcs: map[*types.Func]*hotInfo{}}

	// Roots, in deterministic (package, file, decl) order — the same
	// traversal order buildCallGraph uses, so shortest-chain ties break
	// identically on every run. Only internal packages root the set,
	// the scope hotFuncs polices: a cmd/ or bench driver that calls
	// every constructor once is not a per-event path.
	var roots []*types.Func
	for _, pkg := range p.Pkgs {
		if !isInternal(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			if pkg.IsTestFile(f) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				if matchesSpec(fn, hotAnchors) || p.graph.schedulesWork(fn) && !setupExempt(fn) {
					roots = append(roots, fn)
				}
			}
		}
	}

	// Multi-source BFS: shortest chains, expanding module-declared
	// functions only (sinks have no bodies to analyze).
	type item struct {
		fn   *types.Func
		info *hotInfo
	}
	var queue []item
	for _, r := range roots {
		if hs.funcs[r] != nil {
			continue
		}
		info := &hotInfo{root: r}
		hs.funcs[r] = info
		queue = append(queue, item{r, info})
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range p.graph.callees(cur.fn) {
			if hs.funcs[e.callee] != nil || !p.graph.declared[e.callee] {
				continue
			}
			chain := append(append([]reachStep{}, cur.info.chain...), reachStep{e.callee, e.pos})
			info := &hotInfo{root: cur.info.root, chain: chain}
			hs.funcs[e.callee] = info
			queue = append(queue, item{e.callee, info})
		}
	}
	p.hot = hs
	return hs
}

// schedulesWork reports whether fn has a direct edge to a scheduling
// primitive — it hands the engine a callback.
func (g *callGraph) schedulesWork(fn *types.Func) bool {
	for _, e := range g.edges[fn] {
		if matchesSpec(e.callee, hotSchedulers) {
			return true
		}
	}
	return false
}

// hotDecl is one hot function declaration in a package, ready for a
// perf rule to inspect.
type hotDecl struct {
	decl *ast.FuncDecl
	fn   *types.Func
	info *hotInfo
}

// hotFuncs lists the package's hot function declarations in source
// order. Perf rules only police internal packages: cmd/ and example
// code never sits on the event loop.
func (p *Package) hotFuncs() []hotDecl {
	if p.prog == nil || !isInternal(p.Path) {
		return nil
	}
	hs := p.prog.HotSet()
	var out []hotDecl
	for _, f := range p.Files {
		if p.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if info := hs.funcs[fn]; info != nil {
				out = append(out, hotDecl{fd, fn, info})
			}
		}
	}
	return out
}

// posWithin reports whether pos falls inside node's source range.
func posWithin(pos token.Pos, node ast.Node) bool {
	return pos >= node.Pos() && pos < node.End()
}
