package fixture

type payload struct{ n int }

func AllocHot(e *Engine, n int) {
	e.Schedule(1, func() { // want:hotalloc
		_ = &payload{n: n} // want:hotalloc
		_ = new(payload)   // want:hotalloc
		f := e.Step        // want:hotalloc
		_ = f()
		// An immediately invoked literal compiles to a direct call.
		func() { _ = n }()
		//afalint:allow hotalloc -- fixture: justified refill on freelist miss
		_ = &payload{}
	})
	// A capture-free literal is a static function: no allocation.
	e.Schedule(1, func() { noop() })
}

func allocCold() {
	_ = &payload{}
	_ = new(payload)
}

func noop() {}
