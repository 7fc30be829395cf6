package stats

// Sample is one completion-latency observation: when the I/O completed
// (nanoseconds of simulated time) and how long it took (nanoseconds).
// The Fig 10 scatter plot is a sequence of these.
type Sample struct {
	At      int64
	Latency int64
}

// LatLog collects raw latency samples, like fio's --write_lat_log. The
// paper notes (footnote 1) that enabling the log on all 64 SSDs perturbed
// the measurement, so logging carries a per-sample CPU cost that the
// simulator charges to the recording thread; see the fio package.
type LatLog struct {
	samples []Sample
}

// NewLatLog returns an empty log. It retains every sample.
func NewLatLog() *LatLog { return &LatLog{} }

// Add records one sample.
func (l *LatLog) Add(at, latency int64) {
	l.samples = append(l.samples, Sample{At: at, Latency: latency})
}

// Samples returns the stored samples in completion order.
func (l *LatLog) Samples() []Sample { return l.samples }

// SpikeClusters groups spike samples whose completion times are within gap
// of the previous spike and reports the start time of each cluster. The
// periodic SMART windows of Fig 10 show up as clusters at a fixed period.
func (l *LatLog) SpikeClusters(threshold, gap int64) []int64 {
	var starts []int64
	last := int64(-1 << 62)
	for _, s := range l.samples {
		if s.Latency <= threshold {
			continue
		}
		if s.At-last > gap {
			starts = append(starts, s.At)
		}
		last = s.At
	}
	return starts
}
