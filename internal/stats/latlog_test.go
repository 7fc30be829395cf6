package stats

import (
	"testing"
)

func TestLatLogBasics(t *testing.T) {
	l := NewLatLog()
	l.Add(100, 30)
	l.Add(200, 31)
	s := l.Samples()
	if len(s) != 2 || s[0].At != 100 || s[1].Latency != 31 {
		t.Fatalf("samples = %v", s)
	}
}

func TestSpikeClustersFindsPeriod(t *testing.T) {
	// Synthetic Fig 10: background at 30, spike windows at t=1e9 and t=3e9,
	// each window containing several consecutive spikes.
	l := NewLatLog()
	for t0 := int64(0); t0 < 4_000_000_000; t0 += 1_000_000 {
		lat := int64(30_000)
		if (t0 >= 1_000_000_000 && t0 < 1_000_500_000) ||
			(t0 >= 3_000_000_000 && t0 < 3_000_500_000) {
			lat = 580_000
		}
		l.Add(t0, lat)
	}
	clusters := l.SpikeClusters(100_000, 10_000_000)
	if len(clusters) != 2 {
		t.Fatalf("clusters = %v, want 2", clusters)
	}
	if clusters[0] != 1_000_000_000 || clusters[1] != 3_000_000_000 {
		t.Fatalf("cluster starts = %v", clusters)
	}
}

func TestSpikeClustersEmpty(t *testing.T) {
	l := NewLatLog()
	l.Add(1, 30)
	if c := l.SpikeClusters(100, 10); len(c) != 0 {
		t.Fatalf("clusters on clean log = %v", c)
	}
}
