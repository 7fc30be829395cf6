package main

// Example pins the demo's whole output: every number in it is
// seed-determined.
func Example() {
	main()
	// Output:
	// act 1, reads: nvme0 offline 125–375 ms of a 500 ms run
	//
	// striped-request ladder: avg=108.4µs 99%=342.0µs 99.9%=344.1µs 99.99%=344.1µs 99.999%=344.1µs 99.9999%=344.1µs max=345.6µs
	//
	// requests=4022 failed=0 hedged=699 hedge-wins=699 degraded=0 late-subios=699
	// kernel: timeouts=3944 aborts=3944 retries=3345 exhausted=599 late-cqes=0
	//
	// failure trace:
	// 125.000ms ssd=0 drop
	// 375.000ms ssd=0 recover
	//
	// the array rode through the outage: zero failed requests,
	// worst case bounded by the hedge, ladder restored after replug.
	//
	// act 2, writes: nvme0 pulled at 125 ms, replaced at 250 ms, then rebuilt
	//
	// -- rebuild throttle 100.000µs --
	// write ladder: avg=66.2µs 99%=202.8µs 99.9%=366.6µs 99.99%=366.6µs 99.999%=366.6µs 99.9999%=366.6µs max=367.7µs
	// requests=7011 failed=0 parity-log=215 degraded=215 hedged=14 hedge-wins=0 suspicions=1 probes=13
	// rebuild: 1250/1250 stripes (done in 237.0 ms), reads=10000 writes=1250
	//
	// -- rebuild throttle 0ns --
	// write ladder: avg=66.2µs 99%=202.8µs 99.9%=366.6µs 99.99%=366.6µs 99.999%=366.6µs 99.9999%=366.6µs max=367.7µs
	// requests=7014 failed=0 parity-log=215 degraded=215 hedged=14 hedge-wins=0 suspicions=1 probes=13
	// rebuild: 1250/1250 stripes (done in 111.2 ms), reads=10000 writes=1250
	//
	// writes rode through the pull: parity logging carried the outage,
	// hedged parity writes bounded the worst case, and the replacement
	// was rebuilt while foreground writes continued.
}
