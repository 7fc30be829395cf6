package main

// Example pins the demo's whole output: every number in it is
// seed-determined.
func Example() {
	main()
	// Output:
	// AFA system: 8 SSDs, 40 logical CPUs, config=irq
	// boot cmdline: isolcpus=4-19,24-39 nohz_full=4-19,24-39 rcu_nocbs=4-19,24-39 processor.max_cstate=1 idle=poll
	// nvme0: (groupid=0): rw=randread, bs=4096, iodepth=1
	//   read: IOPS=28057, ios=14029
	//   clat (usec): avg=35.64
	//   clat percentiles (usec):
	//    |  99.0000%        38.9
	//    |  99.9000%        40.4
	//    |  99.9900%        41.5
	//    |  99.9990%        42.5
	//    |  99.9999%        42.5
	//    | 100.0000%        42.5 (max)
	// nvme1: (groupid=0): rw=randread, bs=4096, iodepth=1
	//   read: IOPS=28057, ios=14029
	//   clat (usec): avg=35.64
	//   clat percentiles (usec):
	//    |  99.0000%        38.9
	//    |  99.9000%        40.2
	//    |  99.9900%        41.2
	//    |  99.9990%        42.2
	//    |  99.9999%        42.2
	//    | 100.0000%        42.2 (max)
	// nvme2: (groupid=0): rw=randread, bs=4096, iodepth=1
	//   read: IOPS=28057, ios=14029
	//   clat (usec): avg=35.64
	//   clat percentiles (usec):
	//    |  99.0000%        39.2
	//    |  99.9000%        40.4
	//    |  99.9900%        41.2
	//    |  99.9990%        41.5
	//    |  99.9999%        41.5
	//    | 100.0000%        41.6 (max)
	// nvme3: (groupid=0): rw=randread, bs=4096, iodepth=1
	//   read: IOPS=28056, ios=14029
	//   clat (usec): avg=35.64
	//   clat percentiles (usec):
	//    |  99.0000%        39.4
	//    |  99.9000%        40.7
	//    |  99.9900%        41.5
	//    |  99.9990%        41.5
	//    |  99.9999%        41.5
	//    | 100.0000%        41.7 (max)
	// nvme4: (groupid=0): rw=randread, bs=4096, iodepth=1
	//   read: IOPS=28058, ios=14029
	//   clat (usec): avg=35.64
	//   clat percentiles (usec):
	//    |  99.0000%        39.2
	//    |  99.9000%        40.4
	//    |  99.9900%        41.7
	//    |  99.9990%        41.7
	//    |  99.9999%        41.7
	//    | 100.0000%        42.0 (max)
	// nvme5: (groupid=0): rw=randread, bs=4096, iodepth=1
	//   read: IOPS=28057, ios=14029
	//   clat (usec): avg=35.64
	//   clat percentiles (usec):
	//    |  99.0000%        39.2
	//    |  99.9000%        40.4
	//    |  99.9900%        41.7
	//    |  99.9990%        42.2
	//    |  99.9999%        42.2
	//    | 100.0000%        42.4 (max)
	// nvme6: (groupid=0): rw=randread, bs=4096, iodepth=1
	//   read: IOPS=28056, ios=14029
	//   clat (usec): avg=35.64
	//   clat percentiles (usec):
	//    |  99.0000%        39.4
	//    |  99.9000%        40.7
	//    |  99.9900%        42.0
	//    |  99.9990%        42.0
	//    |  99.9999%        42.0
	//    | 100.0000%        42.2 (max)
	// nvme7: (groupid=0): rw=randread, bs=4096, iodepth=1
	//   read: IOPS=28057, ios=14029
	//   clat (usec): avg=35.64
	//   clat percentiles (usec):
	//    |  99.0000%        38.7
	//    |  99.9000%        40.4
	//    |  99.9900%        42.5
	//    |  99.9990%        42.5
	//    |  99.9999%        42.5
	//    | 100.0000%        42.7 (max)
	//
	// config=irq  ssds=8
	// rung           mean(µs)      std(µs)      min(µs)      max(µs)
	// avg                35.6          0.0         35.6         35.6
	// 99%                39.1          0.2         38.7         39.4
	// 99.9%              40.5          0.2         40.2         40.7
	// 99.99%             41.7          0.4         41.2         42.5
	// 99.999%            42.0          0.4         41.5         42.5
	// 99.9999%           42.0          0.4         41.5         42.5
	// max                42.2          0.4         41.6         42.7
}
