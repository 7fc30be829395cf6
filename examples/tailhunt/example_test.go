package main

// Example pins the demo's whole output: every number in it is
// seed-determined.
func Example() {
	main()
	// Output:
	// == Step 1: measure under the default configuration (traced) ==
	// config=default  ssds=16
	// rung           mean(µs)      std(µs)      min(µs)      max(µs)
	// avg                52.4          4.4         39.0         56.6
	// 99%                56.5          4.4         43.0         62.5
	// 99.9%              99.9         16.7         61.4        126.0
	// 99.99%            977.2       1241.4        124.9       4014.1
	// 99.999%           992.6       1231.3        158.7       4014.1
	// 99.9999%          992.6       1231.3        158.7       4014.1
	// max               994.6       1233.7        158.8       4021.9
	//
	// == Step 2: who interfered? (sched_switch analysis, Section IV-B) ==
	//   llvmpipe             dispatched  145 times on cpu(8)
	//   llvmpipe             dispatched   80 times on cpu(6)
	//   llvmpipe             dispatched   14 times on cpu(35)
	//   llvmpipe             dispatched    5 times on cpu(16)
	//   llvmpipe             dispatched    2 times on cpu(27)
	//   lttng-consumerd      dispatched    2 times on cpu(14)
	//   kworker/u80:2        dispatched    1 times on cpu(18)
	//   llvmpipe             dispatched    1 times on cpu(5)
	//   ... 1 more
	//
	// == Step 3: where did interrupts execute? (irq analysis, Section IV-D) ==
	//   91.7% of deliveries executed on a remote CPU
	//   irq(7,11) executed on cpu(33) ×10095
	//   irq(11,15) executed on cpu(31) ×10045
	//   irq(8,12) executed on cpu(38) ×10040
	//   irq(5,9) executed on cpu(29) ×10039
	//   irq(15,19) executed on cpu(37) ×10015
	//
	// == Step 4: apply chrt + isolcpus + IRQ pinning and re-measure ==
	// config=irq  ssds=16
	// rung           mean(µs)      std(µs)      min(µs)      max(µs)
	// avg                35.8          0.0         35.8         35.8
	// 99%                39.4          0.2         38.9         39.7
	// 99.9%              40.8          0.2         40.4         41.2
	// 99.99%             41.7          0.5         41.0         43.5
	// 99.999%            42.2          0.7         41.5         44.0
	// 99.9999%           42.2          0.7         41.5         44.0
	// max                42.3          0.7         41.6         44.1
	//
	// remote deliveries after pinning: 0.0%
	//
	// mean worst-case latency: 995µs → 42µs (×23.5 better)
}
