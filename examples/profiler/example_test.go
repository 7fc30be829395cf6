package main

// Example pins the demo's whole output: every number in it is
// seed-determined.
func Example() {
	main()
	// Output:
	// fleet: 64 drives, media 19.1µs ±0.82, max 62.8µs ±64.7
	//
	// outliers (≥4σ from the fleet):
	//   nvme13  media 25.4µs (8σ above fleet) → slow NAND (bad bin?)
	//   nvme42  max 576.1µs (8σ above fleet), 5 I/Os hit housekeeping → firmware regression
	//
	// profiled 64 drives in 0.5s of array time; a serial single-drive
	// testbed needs 32s for the same coverage — a ×64 speedup, the paper's
	// Section VI deployment.
}
