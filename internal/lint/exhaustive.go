package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// exhaustiveRule requires every switch over a sim-core enum type to
// either cover all of the type's declared constants or carry an
// explicit default clause. The sim-core enums (nvme.Status, nvme.Opcode,
// nvme.FirmwareKind, fio.Phase, sched.Class/State, kernel.CompletionMode,
// irq.Policy, ...) each encode a completion outcome or a machine state;
// a switch that silently falls through a newly added constant — say a
// fifth nvme.Status — turns a modeling extension into a wrong-results
// bug instead of a compile-visible decision. This is the vet-style
// `exhaustive` check production storage stacks run, scoped to the enums
// whose mishandling can skew the latency figures.
//
// An enum type is a named integer type declared in a sim-core package
// with at least two package-level constants of exactly that type. The
// rule fires module-wide in non-test files: host-side reporting code
// switching over nvme.Status is exactly as able to drop a case as the
// controller model is.
type exhaustiveRule struct{}

func (exhaustiveRule) Name() string { return "exhaustive" }

func (exhaustiveRule) Doc() string {
	return "a switch over a sim-core enum type must cover every declared constant or have an explicit default"
}

func (exhaustiveRule) Check(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		if p.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			named, consts := p.enumOf(sw.Tag)
			if named == nil {
				return true
			}
			covered := map[string]bool{}
			for _, stmt := range sw.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok {
					continue
				}
				if cc.List == nil {
					return true // explicit default: exhaustive by decision
				}
				for _, e := range cc.List {
					if tv, ok := p.Info.Types[e]; ok && tv.Value != nil {
						covered[tv.Value.ExactString()] = true
					}
				}
			}
			var missing []string
			for _, c := range consts {
				if v := c.Val(); v != nil && !covered[v.ExactString()] {
					missing = append(missing, c.Name())
				}
			}
			if len(missing) > 0 {
				out = append(out, p.finding("exhaustive", sw.Pos(),
					"switch over %s misses %s; add the cases or an explicit default",
					named.Obj().Name(), strings.Join(missing, ", ")))
			}
			return true
		})
	}
	return out
}

// enumOf reports the sim-core enum type of e and its declared
// constants, or (nil, nil) when e is not an enum-typed expression. The
// constant list is in package-scope (sorted-name) order, deduplicated
// by value so aliases do not inflate the requirement.
func (p *Package) enumOf(e ast.Expr) (*types.Named, []*types.Const) {
	named, ok := p.typeOf(e).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil, nil
	}
	if !isSimCore(named.Obj().Pkg().Path()) {
		return nil, nil
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		return nil, nil
	}
	scope := named.Obj().Pkg().Scope()
	seen := map[string]bool{}
	var consts []*types.Const
	for _, name := range scope.Names() { // Names() is sorted
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		if v := c.Val(); v != nil {
			if key := v.ExactString(); !seen[key] {
				seen[key] = true
				consts = append(consts, c)
			}
		}
	}
	if len(consts) < 2 {
		return nil, nil
	}
	return named, consts
}
