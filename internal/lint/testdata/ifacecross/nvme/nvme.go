// Package nvme is the dispatching half of the ifacecross fixture: a
// hot anchor calls through an interface whose method signature names
// this package's own Result type, and the only implementation lives in
// the importing kernel package.
package nvme

// Result is a completed command.
type Result struct{ Status int }

// Receiver takes a completed command.
type Receiver interface{ OnResult(*Result) }

// Controller hands each result to its receiver.
type Controller struct {
	recv Receiver
	res  Result
}

// Submit is a hot-set anchor (nvme, Controller, Submit).
func (c *Controller) Submit() { c.recv.OnResult(&c.res) }
