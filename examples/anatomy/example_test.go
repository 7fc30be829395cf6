package main

// Example pins the demo's whole output: every number in it is
// seed-determined.
func Example() {
	main()
	// Output:
	// == Default configuration ==
	// phase            mean(µs)    std(µs)   share
	// submit+fetch         5.91       1.40   11.7%
	// housekeeping         0.00       0.00    0.0%
	// media               18.83       1.10   37.3%
	// return               4.57       0.06    9.1%
	// interrupt            7.56       2.06   15.0%
	// wakeup+reap         13.55       1.17   26.9%
	// total               50.42
	//
	// == Tuned (chrt + isolcpus + IRQ affinity) ==
	// phase            mean(µs)    std(µs)   share
	// submit+fetch         4.96       0.79   13.9%
	// housekeeping         0.00       0.00    0.0%
	// media               18.84       1.11   52.8%
	// return               4.68       0.20   13.1%
	// interrupt            2.70       0.00    7.6%
	// wakeup+reap          4.50       0.00   12.6%
	// total               35.68
	//
	// media time is the device's to keep: 18.8µs vs 18.8µs.
	// everything the kernel touches shrinks: wakeup 13.6µs → 4.5µs, interrupt 7.6µs → 2.7µs.
}
