// Fixture stub of the sim engine surface. The hot-set analysis matches
// roots and scheduling primitives by (package-path tail, receiver,
// name), so this package — loaded by the tests as repro/internal/sim —
// provides Engine with the primitive signatures and nothing else.
package fixture

type Time int64
type Duration int64

type Engine struct{ now Time }

// Step is a hot-set anchor: the event loop itself.
func (e *Engine) Step() bool { return false }

// Schedule is a scheduling primitive: a function that hands it a
// callback becomes a hot root.
func (e *Engine) Schedule(d Duration, fn func()) {}

// NewEngine exists to prove the constructor exemption: it references a
// scheduling primitive but must NOT become a hot root, so the defer
// and allocation below stay unreported.
func NewEngine(fn func()) *Engine {
	e := &Engine{}
	defer fn()
	e.Schedule(1, fn)
	return e
}
