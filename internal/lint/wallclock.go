package lint

import (
	"go/ast"
	"go/types"
)

// wallclockRule bans wall-clock reads everywhere in the module. The
// simulator's notion of time is sim.Engine's virtual clock; any
// time.Now/Sleep/Timer leaking into model or reporting code couples
// results to the host machine. Legitimate self-timing (wall-clock cost
// banners in cmd/afareport) is annotated //afalint:allow wallclock.
type wallclockRule struct{}

func (wallclockRule) Name() string { return "wallclock" }

func (wallclockRule) Doc() string {
	return "no time.Now/Since/Until/Sleep/After/Tick/Timer/Ticker; simulated time comes from sim.Engine"
}

// wallclockBanned lists the time-package functions that read or wait on
// the wall clock. Pure arithmetic (time.Duration, constants, Round) is
// deterministic and allowed.
var wallclockBanned = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

func (wallclockRule) Check(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		names := importNames(f, "time")
		if len(names) == 0 {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || !names[id.Name] || !wallclockBanned[sel.Sel.Name] {
				return true
			}
			// Skip identifiers that shadow the import.
			if obj, found := p.Info.Uses[id]; found {
				if pn, ok := obj.(*types.PkgName); !ok || pn.Imported().Path() != "time" {
					return true
				}
			}
			out = append(out, p.finding("wallclock", sel.Pos(),
				"time.%s reads the wall clock; use the sim.Engine virtual clock", sel.Sel.Name))
			return true
		})
	}
	return out
}
