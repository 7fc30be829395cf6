package fixture

func DeferHot(e *Engine) {
	e.Schedule(1, deferee)
}

func deferee() {
	defer done() // want:hotdefer
	work()
}

func deferCold() {
	defer done()
}

func done() {}
func work() {}
