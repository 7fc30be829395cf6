package fio

import (
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/nvme"
	"repro/internal/sim"
)

// TestJobSpecValidate: strict validation rejects zero and negative
// queue depth, block size, and runtime with errors that name the field.
func TestJobSpecValidate(t *testing.T) {
	valid := JobSpec{Name: "ok", IODepth: 4, BS: 4096, Runtime: sim.Second}
	for _, rw := range []RW{"", RandRead, RandWrite, SeqRead} {
		s := valid
		s.RW = rw
		if err := s.Validate(); err != nil {
			t.Fatalf("valid spec with rw %q rejected: %v", rw, err)
		}
	}
	for _, tc := range []struct {
		name string
		mut  func(*JobSpec)
		want string
	}{
		{"zero-iodepth", func(s *JobSpec) { s.IODepth = 0 }, "iodepth"},
		{"negative-iodepth", func(s *JobSpec) { s.IODepth = -2 }, "iodepth"},
		{"zero-bs", func(s *JobSpec) { s.BS = 0 }, "block size"},
		{"negative-bs", func(s *JobSpec) { s.BS = -4096 }, "block size"},
		{"zero-runtime", func(s *JobSpec) { s.Runtime = 0 }, "runtime"},
		{"negative-runtime", func(s *JobSpec) { s.Runtime = -sim.Second }, "runtime"},
		{"negative-ssd", func(s *JobSpec) { s.SSD = -1 }, "ssd"},
		{"misspelled-rw", func(s *JobSpec) { s.RW = "randwrte" }, "rw"},
		{"unknown-rw", func(s *JobSpec) { s.RW = "write" }, "rw"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := valid
			tc.mut(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("spec %+v passed validation", s)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

// TestNewRejectsNegativeSpec: New still fills documented defaults for
// zero fields but panics with the validation error on explicit
// negatives instead of running a silently misconfigured job.
func TestNewRejectsNegativeSpec(t *testing.T) {
	r := newRig(t, 2, 1, kernel.CompleteInterrupt, nvme.FirmwareNoSMART)

	// Zero fields default, as before.
	j := New(r.eng, r.k, JobSpec{SSD: 0})
	if got := j.spec; got.BS != 4096 || got.IODepth != 1 || got.Runtime != 2*sim.Second {
		t.Fatalf("defaults not applied: %+v", got)
	}

	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("New accepted a negative queue depth")
		}
		if s, ok := p.(string); !ok || !strings.Contains(s, "iodepth") {
			t.Fatalf("panic %v does not carry the validation error", p)
		}
	}()
	New(r.eng, r.k, JobSpec{SSD: 0, IODepth: -1})
}

// TestIOPSZeroElapsed: a result with zero or negative recorded runtime
// reports 0 IOPS, not +Inf/NaN or a negative rate.
func TestIOPSZeroElapsed(t *testing.T) {
	r := Result{IOs: 1000}
	if got := r.IOPS(); got != 0 {
		t.Fatalf("zero-runtime IOPS = %v, want 0", got)
	}
	r.Runtime = -sim.Second
	if got := r.IOPS(); got != 0 {
		t.Fatalf("negative-runtime IOPS = %v, want 0", got)
	}
	r.Runtime = sim.Second
	if got := r.IOPS(); got != 1000 {
		t.Fatalf("IOPS = %v, want 1000", got)
	}
}
