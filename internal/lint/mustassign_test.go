package lint

// Property test for the must-assign dataflow (fieldgraph.go): the
// analysis may only ever under-claim. For randomly generated function
// bodies over the control-flow shapes the walker handles — if/else,
// switch with and without default, early return, and loops — every
// field the analysis claims "definitely assigned" must be assigned on
// every path of an exhaustive path enumeration over the same body.
//
// Loops are enumerated at zero and one iterations. That is sufficient:
// iterating more times only adds assignments to a path's set, so the
// zero-iteration path is always the minimal one, and a claim that
// survives it survives every unrolling.

import (
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/rng"
)

// The generator grammar. Statement lists are []any of these shapes.
type genAssign struct{ fi int } // o.f<fi> = 1
type genReturn struct{}
type genIf struct {
	cond    int
	then    []any
	els     []any
	hasElse bool
}
type genSwitch struct {
	cases      [][]any
	def        []any
	hasDefault bool
}
type genFor struct{ body []any }

// genBody emits a random statement list. budget bounds the total
// statement count so path enumeration stays small (≤ 2^budget states).
func genBody(r *rng.Stream, depth int, budget *int) []any {
	n := 1 + r.Intn(3)
	var out []any
	for i := 0; i < n && *budget > 0; i++ {
		*budget--
		switch pick := r.Intn(10); {
		case pick < 4 || depth >= 3:
			out = append(out, genAssign{fi: r.Intn(4)})
		case pick < 6:
			s := genIf{cond: r.Intn(3), hasElse: r.Intn(2) == 0}
			s.then = genBody(r, depth+1, budget)
			if s.hasElse {
				s.els = genBody(r, depth+1, budget)
			}
			out = append(out, s)
		case pick < 8:
			sw := genSwitch{hasDefault: r.Intn(2) == 0}
			for j := 1 + r.Intn(2); j > 0; j-- {
				sw.cases = append(sw.cases, genBody(r, depth+1, budget))
			}
			if sw.hasDefault {
				sw.def = genBody(r, depth+1, budget)
			}
			out = append(out, sw)
		case pick < 9:
			out = append(out, genFor{body: genBody(r, depth+1, budget)})
		default:
			out = append(out, genReturn{})
		}
	}
	return out
}

func renderBody(sb *strings.Builder, list []any, indent string) {
	for _, s := range list {
		switch s := s.(type) {
		case genAssign:
			fmt.Fprintf(sb, "%so.f%d = 1\n", indent, s.fi)
		case genReturn:
			fmt.Fprintf(sb, "%sreturn\n", indent)
		case genIf:
			fmt.Fprintf(sb, "%sif k > %d {\n", indent, s.cond)
			renderBody(sb, s.then, indent+"\t")
			if s.hasElse {
				fmt.Fprintf(sb, "%s} else {\n", indent)
				renderBody(sb, s.els, indent+"\t")
			}
			fmt.Fprintf(sb, "%s}\n", indent)
		case genSwitch:
			fmt.Fprintf(sb, "%sswitch k {\n", indent)
			for i, c := range s.cases {
				fmt.Fprintf(sb, "%scase %d:\n", indent, i)
				renderBody(sb, c, indent+"\t")
			}
			if s.hasDefault {
				fmt.Fprintf(sb, "%sdefault:\n", indent)
				renderBody(sb, s.def, indent+"\t")
			}
			fmt.Fprintf(sb, "%s}\n", indent)
		case genFor:
			fmt.Fprintf(sb, "%sfor i := 0; i < k; i++ {\n", indent)
			renderBody(sb, s.body, indent+"\t")
			fmt.Fprintf(sb, "%s}\n", indent)
		}
	}
}

// truthState is one enumerated path: the fields it has assigned so far
// and whether it already returned.
type truthState struct {
	set  map[int]bool
	done bool
}

func cloneTruth(s truthState) truthState {
	m := make(map[int]bool, len(s.set))
	for k := range s.set {
		m[k] = true
	}
	return truthState{set: m, done: s.done}
}

func truthList(states []truthState, list []any) []truthState {
	for _, s := range list {
		states = truthStmt(states, s)
	}
	return states
}

func truthStmt(states []truthState, stmt any) []truthState {
	var out []truthState
	for _, st := range states {
		if st.done {
			out = append(out, st)
			continue
		}
		switch s := stmt.(type) {
		case genAssign:
			ns := cloneTruth(st)
			ns.set[s.fi] = true
			out = append(out, ns)
		case genReturn:
			ns := cloneTruth(st)
			ns.done = true
			out = append(out, ns)
		case genIf:
			out = append(out, truthList([]truthState{cloneTruth(st)}, s.then)...)
			if s.hasElse {
				out = append(out, truthList([]truthState{cloneTruth(st)}, s.els)...)
			} else {
				out = append(out, cloneTruth(st))
			}
		case genSwitch:
			for _, c := range s.cases {
				out = append(out, truthList([]truthState{cloneTruth(st)}, c)...)
			}
			if s.hasDefault {
				out = append(out, truthList([]truthState{cloneTruth(st)}, s.def)...)
			} else {
				out = append(out, cloneTruth(st)) // no case matched
			}
		case genFor:
			out = append(out, cloneTruth(st)) // zero iterations
			out = append(out, truthList([]truthState{cloneTruth(st)}, s.body)...)
		}
	}
	return out
}

// loadGenerated writes src to a temp dir, loads it as package "gen",
// and fails the test on parse or type errors (a generator that emits
// invalid Go would silently prove nothing).
func loadGenerated(t *testing.T, src string) *Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "gen.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := NewLoader(dir, "gen").LoadDir(dir, "gen")
	if err != nil {
		t.Fatalf("loading generated package: %v\nsource:\n%s", err, src)
	}
	for _, terr := range p.TypeErrors {
		t.Fatalf("generated source does not type-check: %v\nsource:\n%s", terr, src)
	}
	return p
}

func objType(t *testing.T, p *Package) *types.Named {
	t.Helper()
	tn, ok := p.Types.Scope().Lookup("obj").(*types.TypeName)
	if !ok {
		t.Fatal("generated package has no type obj")
	}
	return tn.Type().(*types.Named)
}

func sortedKeys(s assignSet) []string {
	var out []string
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

const genHeader = `package gen

type obj struct {
	f0 int
	f1 int
	f2 int
	f3 int
}

`

func TestMustAssignSoundProperty(t *testing.T) {
	const nFuncs = 80
	root := rng.New(0xafa11)
	var sb strings.Builder
	sb.WriteString(genHeader)
	bodies := make([][]any, nFuncs)
	srcOf := make([]string, nFuncs)
	for i := 0; i < nFuncs; i++ {
		budget := 12
		child := root.DeriveIndexed(uint64(i))
		bodies[i] = genBody(&child, 0, &budget)
		var fb strings.Builder
		fmt.Fprintf(&fb, "func fn%d(o *obj, k int) {\n", i)
		renderBody(&fb, bodies[i], "\t")
		fb.WriteString("}\n\n")
		srcOf[i] = fb.String()
		sb.WriteString(srcOf[i])
	}

	p := loadGenerated(t, sb.String())
	g := p.fieldGraph()
	obj := objType(t, p)
	declByName := map[string]*ast.FuncDecl{}
	for _, fd := range g.decls {
		declByName[fd.Name.Name] = fd
	}

	claims := 0
	for i := range bodies {
		fd := declByName[fmt.Sprintf("fn%d", i)]
		if fd == nil {
			t.Fatalf("generated fn%d not found after load", i)
		}
		got := g.mustAssign(fd, obj, modeReset, false)
		paths := truthList([]truthState{{set: map[int]bool{}}}, bodies[i])
		for _, key := range sortedKeys(got) {
			claims++
			var fi int
			if _, err := fmt.Sscanf(key, "f%d", &fi); err != nil {
				t.Fatalf("fn%d: claimed path %q is not a field of obj", i, key)
			}
			for _, pth := range paths {
				if !pth.set[fi] {
					t.Errorf("fn%d: analysis claims %s is definitely assigned, but an execution path misses it — the dataflow over-claims\n%s",
						i, key, srcOf[i])
					break
				}
			}
		}
	}
	if claims == 0 {
		t.Fatalf("property test is vacuous: no definite assignment claimed across %d generated functions", nFuncs)
	}
	t.Logf("verified %d definite-assignment claims against exhaustive path enumeration", claims)
}

// TestMustAssignPinnedCases pins exact result sets for the shapes the
// property test exercises probabilistically, plus the ones its grammar
// cannot produce: whole-object reset, panic exits, and same-type
// method chasing.
func TestMustAssignPinnedCases(t *testing.T) {
	src := genHeader + `func p0(o *obj, k int) {
	o.f0 = 1
	if k > 0 {
		o.f1 = 1
	} else {
		o.f1 = 2
	}
}

func p1(o *obj, k int) {
	if k > 0 {
		o.f0 = 1
	}
}

func p2(o *obj, k int) {
	switch k {
	case 0:
		o.f0 = 1
	default:
		o.f0 = 2
	}
}

func p3(o *obj, k int) {
	switch k {
	case 0:
		o.f0 = 1
	case 1:
		o.f0 = 2
	}
}

func p4(o *obj, k int) {
	o.f0 = 1
	if k > 0 {
		return
	}
	o.f1 = 1
}

func p5(o *obj, k int) {
	for i := 0; i < k; i++ {
		o.f0 = 1
	}
}

func p6(o *obj, k int) {
	*o = obj{}
}

func p7(o *obj, k int) {
	if k > 0 {
		panic("bad")
	}
	o.f0 = 1
}

func (o *obj) clearLow() {
	o.f0 = 1
	o.f1 = 1
}

func (o *obj) Reset() {
	o.clearLow()
	o.f2 = 1
	o.f3 = 1
}
`
	p := loadGenerated(t, src)
	g := p.fieldGraph()
	obj := objType(t, p)
	declByName := map[string]*ast.FuncDecl{}
	for _, fd := range g.decls {
		declByName[fd.Name.Name] = fd
	}
	cases := []struct {
		fn   string
		want []string
	}{
		{"p0", []string{"f0", "f1"}}, // both branches assign f1
		{"p1", nil},                  // the else-less skip path assigns nothing
		{"p2", []string{"f0"}},       // default makes the switch exhaustive
		{"p3", nil},                  // no default: some value skips both cases
		{"p4", []string{"f0"}},       // early return misses f1
		{"p5", nil},                  // the loop may run zero times
		{"p6", []string{""}},         // whole-object reset covers everything
		{"p7", []string{"f0"}},       // a panicking path never completes a recycle
		// Reset is chased through clearLow.
		{"Reset", []string{"f0", "f1", "f2", "f3"}},
	}
	for _, c := range cases {
		fd := declByName[c.fn]
		if fd == nil {
			t.Fatalf("pinned function %s not found", c.fn)
		}
		got := sortedKeys(g.mustAssign(fd, obj, modeReset, false))
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: mustAssign = %v, want %v", c.fn, got, c.want)
		}
	}
}
