package kernel

import "repro/internal/nvme"

// QoSClass labels a submitted I/O with the service class of the tenant
// that issued it. The kernel itself does not reorder by class — queue
// discipline stays FIFO per SQ, as on the real 2016-era stack — but it
// slices completion accounting per class so the admission-control tier
// above (internal/fio's Multiplexer) and the load ablation can see how
// each class fares as the array approaches saturation.
type QoSClass int

const (
	// ClassLatency is latency-sensitive foreground traffic: the tenant
	// is blocked on the answer (point reads on a user-facing path).
	ClassLatency QoSClass = iota
	// ClassThroughput is bulk foreground traffic: the tenant cares
	// about aggregate bandwidth, not per-I/O tail (scans, bulk loads).
	ClassThroughput
	// ClassBackground is deferrable traffic: compaction, scrubbing,
	// backfill — first to be shed under overload.
	ClassBackground
)

// NumQoSClasses sizes dense per-class arrays. Deliberately an untyped
// constant, not a QoSClass, so it never appears in a switch over the
// enum.
const NumQoSClasses = 3

// String returns a short lower-case label ("latency", ...).
func (c QoSClass) String() string {
	switch c {
	case ClassLatency:
		return "latency"
	case ClassThroughput:
		return "throughput"
	case ClassBackground:
		return "background"
	}
	return "invalid"
}

// ClassIOStats counts per-class kernel activity.
type ClassIOStats struct {
	Submitted int64 // commands entering the kernel via SubmitIOClass
	Completed int64 // completions delivered with OK status
	Errors    int64 // completions delivered with a non-OK status
}

// SubmitIOClass is SubmitIOTo with class accounting: it tags the command's
// kernel-side counters with the tenant's QoS class and then follows the
// exact same submit path. Admission control happens above this call (in
// the multiplexer's token buckets); by the time an I/O reaches here it
// has been admitted and is serviced like any other.
func (k *Kernel) SubmitIOClass(submitCPU, ssd int, class QoSClass, cmd nvme.Command, to Receiver) {
	k.iostats.Class[class].Submitted++
	k.SubmitIOTo(submitCPU, ssd, cmd, to)
}

// NoteClassCompletion records the outcome of a class-tagged I/O. The
// caller (the multiplexer's pooled completion callback) invokes it once
// per delivered completion.
func (k *Kernel) NoteClassCompletion(class QoSClass, ok bool) {
	if ok {
		k.iostats.Class[class].Completed++
	} else {
		k.iostats.Class[class].Errors++
	}
}
