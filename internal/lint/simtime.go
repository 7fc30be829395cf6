package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// simtimeRule enforces unit safety on sim.Time / sim.Duration
// arithmetic, module-wide in non-test files. Both are int64
// nanoseconds under the hood, so the type system alone cannot stop the
// three mistakes that silently corrupt a latency ladder:
//
//   - Time + Time: adding two points in time is meaningless (the sum of
//     two timestamps is not an instant); the intended operation is
//     Time.Add(Duration). The canonical implementation of Add itself is
//     the one sanctioned site, annotated //afalint:allow simtime.
//   - Time * k (or k * Time): scaling an instant is a unit error —
//     scaling is only meaningful for Durations.
//   - d + 1500000: a raw numeric literal of a millisecond or more mixed
//     into Time/Duration arithmetic hides its unit; write
//     1500*sim.Microsecond (or a named constant) so the magnitude is
//     auditable against the paper's tables. Literals below 1e6 (sub-ms
//     tick offsets) stay legal.
type simtimeRule struct{}

// simtimeLiteralLimit is the smallest raw literal the third check
// flags: 1e6 ns, i.e. one millisecond.
const simtimeLiteralLimit = 1_000_000

func (simtimeRule) Name() string { return "simtime" }

func (simtimeRule) Doc() string {
	return "no Time+Time, no Time*k, and no raw literal ≥1e6 ns in Time/Duration arithmetic; use named sim units"
}

func (simtimeRule) Check(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		if p.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				out = append(out, p.checkSimtimeBinary(n)...)
			case *ast.AssignStmt:
				// d += 2_000_000 is the same literal hazard as d = d + 2_000_000.
				if (n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN) && len(n.Lhs) == 1 && len(n.Rhs) == 1 {
					if isSimChrono(p.typeOf(n.Lhs[0])) && isRawBigLiteral(p, n.Rhs[0]) {
						out = append(out, p.finding("simtime", n.Rhs[0].Pos(),
							"raw literal ≥1e6 ns in %s arithmetic; use a named sim unit (e.g. n*sim.Millisecond)",
							chronoName(p.typeOf(n.Lhs[0]))))
					}
				}
			}
			return true
		})
	}
	return out
}

func (p *Package) checkSimtimeBinary(n *ast.BinaryExpr) []Finding {
	var out []Finding
	xt, yt := p.typeOf(n.X), p.typeOf(n.Y)
	switch n.Op {
	case token.ADD:
		if isSimTime(xt) && isSimTime(yt) {
			out = append(out, p.finding("simtime", n.OpPos,
				"Time + Time adds two instants; a point in time is not a quantity — use Time.Add(Duration)"))
			return out
		}
	case token.MUL:
		if isSimTime(xt) || isSimTime(yt) {
			out = append(out, p.finding("simtime", n.OpPos,
				"scaling a Time instant is a unit error; only Durations scale"))
			return out
		}
	}
	if n.Op == token.ADD || n.Op == token.SUB {
		if isSimChrono(xt) && isRawBigLiteral(p, n.Y) {
			out = append(out, p.finding("simtime", n.Y.Pos(),
				"raw literal ≥1e6 ns in %s arithmetic; use a named sim unit (e.g. n*sim.Millisecond)", chronoName(xt)))
		}
		if isSimChrono(yt) && isRawBigLiteral(p, n.X) {
			out = append(out, p.finding("simtime", n.X.Pos(),
				"raw literal ≥1e6 ns in %s arithmetic; use a named sim unit (e.g. n*sim.Millisecond)", chronoName(yt)))
		}
	}
	return out
}

// isSimTime reports whether t is the sim package's Time type.
func isSimTime(t types.Type) bool { return isSimNamed(t, "Time") }

// isSimChrono reports whether t is sim.Time or sim.Duration.
func isSimChrono(t types.Type) bool { return isSimNamed(t, "Time") || isSimNamed(t, "Duration") }

func chronoName(t types.Type) string {
	if isSimNamed(t, "Time") {
		return "Time"
	}
	return "Duration"
}

// isSimNamed reports whether t is the named type internal/sim.<name>.
func isSimNamed(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && pathTail(obj.Pkg().Path()) == "sim" && isInternal(obj.Pkg().Path())
}

// isRawBigLiteral reports whether e is a bare numeric literal (possibly
// negated or parenthesized) of magnitude ≥ 1e6 — a duration written
// without a unit. Named constants and unit products are not literals
// and stay legal.
func isRawBigLiteral(p *Package, e ast.Expr) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && (u.Op == token.SUB || u.Op == token.ADD) {
		e = ast.Unparen(u.X)
	}
	if _, ok := e.(*ast.BasicLit); !ok {
		return false
	}
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	v := constant.ToInt(tv.Value)
	if v.Kind() != constant.Int {
		return false
	}
	if i, exact := constant.Int64Val(v); exact {
		if i < 0 {
			i = -i
		}
		return i >= simtimeLiteralLimit
	}
	return true // does not fit int64: certainly ≥ 1e6
}

// pathTail returns the last slash-separated element of an import path.
func pathTail(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
