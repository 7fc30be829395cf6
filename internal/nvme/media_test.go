package nvme

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/nand"
	"repro/internal/pcie"
	"repro/internal/rng"
	"repro/internal/sim"
)

// fetchDelay is the doorbell-to-decode time of a read on an idle
// single-SSD fabric: the instant, after Submit, at which fetched runs.
func fetchDelay(t *testing.T) sim.Duration {
	t.Helper()
	eng, c := newSSD(t, noSMART())
	var res Result
	c.Submit(Command{Op: OpRead, LBA: 3}, func(r Result) { res = r })
	eng.Run()
	if res.FetchedAt <= res.SubmittedAt {
		t.Fatalf("probe read fetched at %v, submitted at %v", res.FetchedAt, res.SubmittedAt)
	}
	return res.FetchedAt.Sub(res.SubmittedAt)
}

// TestReadSteps counts the engine events of one read on an idle engine.
// With nothing else due at the fetch instant, the media read starts
// inside the fetch event: three steps (fetched, nandDone, complete), and
// the media stage starts at the fetch instant. A read fetched inside a
// housekeeping window waits it out in an event of its own: four steps,
// and the media stage starts when the window ends.
func TestReadSteps(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stall sim.Duration
		steps uint64
	}{
		{"idle", 0, 3},
		{"smart-blocked", 200 * sim.Microsecond, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, c := newSSD(t, noSMART())
			if eng.Pending() != 0 {
				t.Fatalf("an idle controller keeps %d events pending", eng.Pending())
			}
			if tc.stall > 0 {
				c.blockMedia(tc.stall)
			}
			var res Result
			c.Submit(Command{Op: OpRead, LBA: 9}, func(r Result) { res = r })
			eng.Run()
			if got := eng.Steps(); got != tc.steps {
				t.Fatalf("the read took %d engine steps, want %d", got, tc.steps)
			}
			wantStart, blocked := res.FetchedAt, tc.stall > 0
			if blocked {
				wantStart = c.blockedUntil
			}
			if res.CompletedAt == 0 || res.BlockedBySMART != blocked || res.MediaStartAt != wantStart {
				t.Fatalf("blocked=%v, media started at %v (completed at %v); want blocked=%v, starting at %v",
					res.BlockedBySMART, res.MediaStartAt, res.CompletedAt, blocked, wantStart)
			}
		})
	}
}

// TestFetchInstantEventRunsBeforeMedia: an event due at the fetch
// instant, scheduled after the command (so it fires after fetched), still
// runs before the media read starts. Here it marks the LBA bad, so the
// read must come back with a media error, and the read costs its stall
// event again: five steps in all.
func TestFetchInstantEventRunsBeforeMedia(t *testing.T) {
	fd := fetchDelay(t)
	eng, c := newSSD(t, noSMART())
	var res Result
	c.Submit(Command{Op: OpRead, LBA: 9}, func(r Result) { res = r })
	ranAt, readsBefore := sim.Time(-1), int64(-1)
	eng.ScheduleAt(eng.Now().Add(fd), func() {
		ranAt, readsBefore = eng.Now(), c.Flash.Stats().HostReads
		c.MarkBadLBA(9)
	})
	eng.Run()
	if ranAt != res.FetchedAt || readsBefore != 0 {
		t.Fatalf("competing event ran at %v with %d NAND reads done; want the fetch instant %v, none",
			ranAt, readsBefore, res.FetchedAt)
	}
	if res.Status != StatusMediaError || res.MediaStartAt != res.FetchedAt {
		t.Fatalf("status %v, media started at %v; want a media error, starting at %v",
			res.Status, res.MediaStartAt, res.FetchedAt)
	}
	if got := eng.Steps(); got != 5 {
		t.Fatalf("read plus competing event took %d engine steps, want 5", got)
	}
}

// goldenMixHash is the fingerprint of TestControllerMixFingerprint's run.
// Starting the media read inline must not move it: it was recorded before
// that change, with the read's media stage still its own event.
const goldenMixHash = 0xd83b1cf007326480

// TestControllerMixFingerprint hashes every Result field, the instant
// and order of every done call, and each controller's final Stats, over
// a seeded mix: reads (some striped over several slices), writes and
// flushes on four controllers sharing one engine and fabric, submitted
// on a 500 ns grid so fetches and completions collide across devices.
// One controller runs standard firmware with a short SMART period, one
// incremental housekeeping, one transient errors, a bad LBA and a slow
// bin, and one drops offline twice. About one read in eight also schedules,
// right after its Submit, a GC-storm toggle on its controller at the
// instant an idle fabric fetches it: the toggle fires after the fetch
// event, and must still come before the media read it slows or speeds.
func TestControllerMixFingerprint(t *testing.T) {
	fd := fetchDelay(t)
	eng := sim.NewEngine()
	fab := pcie.NewFabric(eng, pcie.Options{NumSSDs: 4})
	std := DefaultFirmware()
	std.SMARTPeriod = 2 * sim.Millisecond
	inc := Firmware{Kind: FirmwareIncremental, SMARTPeriod: 20 * sim.Millisecond}
	var cs []*Controller
	for i, fw := range []Firmware{std, inc, noSMART(), noSMART()} {
		cs = append(cs, New(eng, Config{ID: i, Fabric: fab, FW: fw, Seed: 2018, Geom: nand.TinyGeometry()}))
	}
	cs[2].SetTransientErrorRate(0.05)
	cs[2].SetReadSlowdown(1.5)
	cs[2].MarkBadLBA(17)
	offline := func(from, to sim.Duration) {
		eng.ScheduleAt(sim.Time(from), func() { cs[3].SetOffline(true) })
		eng.ScheduleAt(sim.Time(to), func() { cs[3].SetOffline(false) })
	}
	offline(1*sim.Millisecond, 1300*sim.Microsecond)
	offline(4*sim.Millisecond, 4050*sim.Microsecond)

	h := fnv.New64a()
	put := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	flag := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	var blocked, dropped, transient, media, done, toggledAtFetch int
	r := rng.New(2018)
	const n = 4000
	for i := 0; i < n; i++ {
		dev := r.Intn(len(cs))
		c := cs[dev]
		cmd := Command{Op: OpRead, LBA: r.Int63n(64), Bytes: 4096, Queue: r.Intn(4)}
		switch p := r.Intn(10); {
		case p < 2:
			cmd.Op = OpWrite
		case p < 3:
			cmd.Op = OpFlush
		case p < 4:
			cmd.Bytes = 4096 * (2 + r.Intn(3))
		}
		at := sim.Time(r.Int63n(16_000)) * sim.Time(500*sim.Nanosecond)
		toggle := cmd.Op == OpRead && i%8 == 0
		eng.ScheduleAt(at, func() {
			c.Submit(cmd, func(res Result) {
				done++
				if toggle && res.FetchedAt == at.Add(fd) {
					toggledAtFetch++
				}
				put(int64(dev), int64(eng.Now()),
					int64(res.Cmd.Op), res.Cmd.LBA, int64(res.Cmd.Bytes), int64(res.Cmd.Queue),
					int64(res.SubmittedAt), int64(res.FetchedAt), int64(res.MediaStartAt),
					int64(res.MediaDoneAt), int64(res.CompletedAt),
					flag(res.BlockedBySMART), flag(res.Dropped), int64(res.Status))
				switch {
				case res.Dropped:
					dropped++
				case res.Status == StatusTransient:
					transient++
				case res.Status == StatusMediaError:
					media++
				}
				if res.BlockedBySMART {
					blocked++
				}
			})
			if toggle {
				eng.ScheduleAt(at.Add(fd), func() { c.SetStormFactor(4 - c.stormSlow) })
			}
		})
	}
	eng.RunUntil(sim.Time(50 * sim.Millisecond))
	for _, c := range cs {
		s := c.Stats()
		put(s.Reads, s.Writes, s.Flushes, s.SMARTWindows, s.SMARTBlockedIOs, s.Formats,
			s.TransientErrors, s.MediaErrors, s.DroppedCmds, s.FaultStalls)
	}
	put(int64(eng.Now()))
	if done != n {
		t.Fatalf("%d of %d commands settled", done, n)
	}
	if blocked == 0 || dropped == 0 || transient == 0 || media == 0 || toggledAtFetch < 50 {
		t.Fatalf("the mix no longer covers every path: %d SMART-blocked, %d dropped, %d transient, %d media errors, %d storm toggles at a fetch instant",
			blocked, dropped, transient, media, toggledAtFetch)
	}
	if got := h.Sum64(); got != goldenMixHash {
		t.Fatalf("mix fingerprint %#x, want %#x", got, uint64(goldenMixHash))
	}
}
