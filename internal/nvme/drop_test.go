package nvme

import (
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// dropStage names where an offline device lost a command.
type dropStage int

const (
	atDoorbell dropStage = iota // Submit while offline
	inSQ                        // submitted, lost before the fetch finished
	inFlight                    // fetched, lost before the CQE was posted
	numDropStages
)

// stageOf classifies a drop notice received at now.
func stageOf(res Result, now sim.Time) dropStage {
	switch {
	case res.FetchedAt != 0:
		return inFlight
	case now == res.SubmittedAt:
		return atDoorbell
	default:
		return inSQ
	}
}

// TestEveryCommandSettlesOnce: done fires exactly once per command, with
// the CQE or with a drop notice. The controller goes offline and back
// while reads, writes and flushes sit at each pipeline stage (one window
// during an SQ stall, so commands wait in the SQ); every command must
// settle once, the notices must match the DroppedCmds count, and each
// notice must carry its command and submission instant. Two more reads
// meet an offline flip at their fetch instant: one flip due before the
// fetch event loses its read in the SQ; one due after it finds the read
// fetched, its media read started at the fetch instant, and loses it
// before the CQE.
func TestEveryCommandSettlesOnce(t *testing.T) {
	fd := fetchDelay(t)
	eng, c := newSSD(t, noSMART())
	type sent struct {
		cmd   Command
		at    sim.Time
		calls int
		res   Result
		stage dropStage // of a drop notice
	}
	const n = 900
	cmds := make([]sent, n+2)
	submit := func(i int, op Opcode) {
		s := &cmds[i]
		s.cmd = Command{Op: op, LBA: int64(i), Bytes: 4096}
		s.at = eng.Now()
		c.Submit(s.cmd, func(res Result) {
			s.calls++
			s.res = res
			if res.Dropped {
				s.stage = stageOf(res, eng.Now())
			}
		})
	}
	for i := 0; i < n; i++ {
		i := i
		eng.ScheduleAt(sim.Time(i)*sim.Time(2*sim.Microsecond), func() { submit(i, Opcode(i%3)) })
	}
	offline := func(from, to sim.Duration) {
		eng.ScheduleAt(sim.Time(from), func() { c.SetOffline(true) })
		eng.ScheduleAt(sim.Time(to), func() { c.SetOffline(false) })
	}
	offline(200*sim.Microsecond, 260*sim.Microsecond)
	offline(600*sim.Microsecond, 605*sim.Microsecond)
	eng.ScheduleAt(sim.Time(1000*sim.Microsecond), func() { c.StallSubmissionQueues(100 * sim.Microsecond) })
	offline(1050*sim.Microsecond, 1200*sim.Microsecond)
	// The fetch-instant flips, on an idle fabric: the first is scheduled
	// after its read's fetch event, the second before.
	afterFetch, beforeFetch := n, n+1
	eng.ScheduleAt(sim.Time(3*sim.Millisecond), func() {
		submit(afterFetch, OpRead)
		offline(3*sim.Millisecond+fd, 3100*sim.Microsecond)
	})
	offline(3200*sim.Microsecond+fd, 3300*sim.Microsecond)
	eng.ScheduleAt(sim.Time(3200*sim.Microsecond), func() { submit(beforeFetch, OpRead) })

	before := c.Stats().DroppedCmds
	eng.RunUntil(sim.Time(100 * sim.Millisecond))

	var notices int64
	var seen [3][numDropStages]int // [op][stage]
	for i, s := range cmds {
		if s.calls != 1 {
			t.Fatalf("command %d (%v): done fired %d times, want once", i, s.cmd.Op, s.calls)
		}
		if s.res.Cmd != s.cmd || s.res.SubmittedAt != s.at {
			t.Fatalf("command %d: result carries %+v submitted at %v, want %+v at %v",
				i, s.res.Cmd, s.res.SubmittedAt, s.cmd, s.at)
		}
		if !s.res.Dropped {
			if s.res.CompletedAt == 0 {
				t.Fatalf("command %d: CQE without a completion instant", i)
			}
			continue
		}
		if s.res.CompletedAt != 0 {
			t.Fatalf("command %d: drop notice carries a CQE instant", i)
		}
		notices++
		seen[s.cmd.Op][s.stage]++
	}
	if a := cmds[afterFetch].res; !a.Dropped || a.FetchedAt != sim.Time(3*sim.Millisecond+fd) ||
		a.MediaStartAt != a.FetchedAt || cmds[afterFetch].stage != inFlight {
		t.Fatalf("read fetched as the drive drops: %+v; want fetched at %v, media started then, lost in flight",
			a, 3*sim.Millisecond+fd)
	}
	if b := cmds[beforeFetch]; !b.res.Dropped || b.res.FetchedAt != 0 || b.stage != inSQ {
		t.Fatalf("read whose fetch follows the drop: %+v; want lost in the SQ", b.res)
	}
	if got := c.Stats().DroppedCmds - before; got != notices {
		t.Fatalf("DroppedCmds rose by %d, but %d drop notices fired", got, notices)
	}
	for op := range seen {
		for st := dropStage(0); st < numDropStages; st++ {
			if seen[op][st] == 0 {
				t.Errorf("no %v command was dropped at stage %d; the schedule no longer covers it", Opcode(op), st)
			}
		}
	}
	if len(c.freeReqs) == 0 {
		t.Fatal("no request carrier came back to the freelist")
	}
}

// TestResultSize: Dropped sits in BlockedBySMART's padding, so a Result
// stays 88 bytes. The controller hands each one to its Receiver in place,
// by pointer into its carrier; the kernel copies it once into its
// carrier to wait for the interrupt, and once more into the Completion it
// hands up, on every completion path.
func TestResultSize(t *testing.T) {
	if s := unsafe.Sizeof(Result{}); s != 88 {
		t.Fatalf("Result is %d bytes, want 88", s)
	}
}

// TestIOReqSize: every in-flight command holds one ioReq, and the
// freelist keeps one more than were ever in flight at once (a command's
// carrier goes back only after its receiver returns). The Result carries
// the command, so the carrier holds no second copy of it: 152 bytes.
func TestIOReqSize(t *testing.T) {
	if s := unsafe.Sizeof(ioReq{}); s != 152 {
		t.Fatalf("ioReq is %d bytes, want 152", s)
	}
}

// TestQueuePairCountsEveryDrop: a passthrough command the device loses at
// the doorbell, in the SQ, or before its CQE is posted is counted once in
// QueuePairStats.Dropped and never reaches the tenant, so a drained pair
// has Submitted = Completed + Dropped, and every carrier is back on the
// pair's freelist.
func TestQueuePairCountsEveryDrop(t *testing.T) {
	eng, c := newSSD(t, noSMART())
	q := c.CreateQueuePair()
	reaped := 0
	onDone := ReceiverFunc(func(*Result) { reaped++ })
	// In flight: fetched by ~3 µs, CQE due at ~30 µs.
	q.Submit(Command{Op: OpRead, LBA: 1}, onDone)
	eng.RunUntil(sim.Time(10 * sim.Microsecond))
	c.SetOffline(true)
	eng.RunUntil(sim.Time(100 * sim.Microsecond))
	c.SetOffline(false)
	// In the SQ: the stall holds the fetch past the offline instant.
	c.StallSubmissionQueues(50 * sim.Microsecond)
	q.Submit(Command{Op: OpRead, LBA: 2}, onDone)
	eng.RunUntil(sim.Time(120 * sim.Microsecond))
	c.SetOffline(true)
	// At the doorbell.
	q.Submit(Command{Op: OpRead, LBA: 3}, onDone)
	eng.RunUntil(sim.Time(300 * sim.Microsecond))
	c.SetOffline(false)
	// And one that completes.
	q.Submit(Command{Op: OpRead, LBA: 4}, onDone)
	eng.RunUntil(sim.Time(sim.Millisecond))

	st := q.Stats()
	if st.Submitted != 4 || st.Dropped != 3 || st.Completed != 1 || reaped != 1 {
		t.Fatalf("submitted %d, dropped %d, completed %d, reaped %d; want 4, 3, 1, 1",
			st.Submitted, st.Dropped, st.Completed, reaped)
	}
	if got := c.Stats().DroppedCmds; got != 3 {
		t.Fatalf("controller counted %d drops, want 3", got)
	}
	// The doorbell drop came while the SQ one was still held: two
	// carriers, both back.
	if len(q.free) != 2 || q.free[0] == q.free[1] {
		t.Fatalf("%d carriers on the pair's freelist, want 2 distinct", len(q.free))
	}
}
