package sim

import (
	"math"
	"testing"
)

// Serializing a live event queue as (now, seq, prioSeq, nFired) plus each
// pending timer's exact (at, seq) key and rebuilding it in a fresh simulator
// must reproduce the original firing order and timestamps bit for bit —
// including mixed priority/normal lanes, same-instant ties, and timers
// scheduled after the restore point.
func TestRestoreRoundTripFiringOrder(t *testing.T) {
	type fired struct {
		label string
		at    Time
	}
	build := func() (*Simulator, *[]fired, map[string]Timer) {
		s := New()
		log := &[]fired{}
		timers := make(map[string]Timer)
		add := func(label string, tm Timer) { timers[label] = tm }
		mk := func(label string) func(any) {
			return func(any) { *log = append(*log, fired{label, s.Now()}) }
		}
		add("n1", s.ScheduleArg(10, mk("n1"), nil))
		add("p1", s.SchedulePriorityArg(10, mk("p1"), nil))
		add("n2", s.ScheduleArg(10, mk("n2"), nil))
		add("p2", s.SchedulePriorityArg(5, mk("p2"), nil))
		add("n3", s.ScheduleArg(3, mk("n3"), nil))
		add("c1", s.ScheduleArg(7, mk("c1"), nil))
		return s, log, timers
	}

	// Reference run: uninterrupted.
	ref, refLog, refTimers := build()
	refTimers["c1"].Cancel()
	for ref.Step() {
	}

	// Checkpointed run: fire the first two events, snapshot, rebuild, finish.
	s, log, timers := build()
	timers["c1"].Cancel()
	s.Step() // n3 at 3
	s.Step() // p2 at 5

	type savedTimer struct {
		label string
		at    Time
		seq   int64
	}
	var saved []savedTimer
	for _, label := range []string{"n1", "p1", "n2"} {
		tm := timers[label]
		if !tm.Pending() {
			t.Fatalf("timer %s not pending at snapshot", label)
		}
		saved = append(saved, savedTimer{label, tm.At(), tm.Seq()})
	}
	now, seq, prioSeq, nFired := s.Now(), s.seq, s.prioSeq, s.Fired()

	// Restore into a simulator that has unrelated history of its own.
	r := New()
	r.ScheduleArg(1, func(any) {}, nil)
	r.Step()
	rlog := &[]fired{}
	r.RestoreBegin(now, seq, prioSeq, nFired)
	if r.live != 0 {
		t.Fatalf("pending after RestoreBegin = %d", r.live)
	}
	for _, sv := range saved {
		label := sv.label
		r.ScheduleRestored(sv.at, sv.seq, func(any) {
			*rlog = append(*rlog, fired{label, r.Now()})
		}, nil)
	}
	if r.Now() != now || r.Fired() != nFired {
		t.Fatalf("restored clock/fired = (%v,%d), want (%v,%d)", r.Now(), r.Fired(), now, nFired)
	}
	// A post-restore normal-lane event at t=10 must sort after n1/n2 (earlier
	// seqs) exactly as it would have in the original.
	r.ScheduleArg(10, func(any) { *rlog = append(*rlog, fired{"post", r.Now()}) }, nil)
	s.ScheduleArg(10, func(any) { *log = append(*log, fired{"post", s.Now()}) }, nil)

	for s.Step() {
	}
	for r.Step() {
	}

	// Original-with-snapshot == original straight through (plus "post").
	wantTail := []string{"p1", "n1", "n2", "post"}
	checkTail := func(name string, got []fired) {
		t.Helper()
		if len(got) < len(wantTail) {
			t.Fatalf("%s log too short: %v", name, got)
		}
		tail := got[len(got)-len(wantTail):]
		for i, w := range wantTail {
			if tail[i].label != w || tail[i].at != 10 {
				t.Fatalf("%s tail[%d] = %+v, want %s@10", name, i, tail[i], w)
			}
		}
	}
	checkTail("checkpointed", *log)
	checkTail("restored", *rlog)
	_ = refLog
	if ref.Fired() == 0 {
		t.Fatal("reference run fired nothing")
	}
	if s.Fired() != r.Fired() {
		t.Fatalf("fired counts diverge: %d vs %d", s.Fired(), r.Fired())
	}
	if s.seq != r.seq || s.prioSeq != r.prioSeq {
		t.Fatalf("lane counters diverge: (%d,%d) vs (%d,%d)", s.seq, s.prioSeq, r.seq, r.prioSeq)
	}
}

func TestTimerSeq(t *testing.T) {
	s := New()
	tm := s.ScheduleArg(1, func(any) {}, nil)
	if tm.Seq() != 0 {
		t.Fatalf("first normal seq = %d", tm.Seq())
	}
	tm2 := s.SchedulePriorityArg(1, func(any) {}, nil)
	if tm2.Seq() != math.MinInt64/2 {
		t.Fatalf("first priority seq = %d", tm2.Seq())
	}
	s.Step()
	s.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("Seq on fired timer did not panic")
		}
	}()
	tm.Seq()
}

func TestRestoreBeginReleasesCancelled(t *testing.T) {
	s := New()
	var tms []Timer
	for i := 0; i < 10; i++ {
		tms = append(tms, s.ScheduleArg(Time(i+1), func(any) {}, nil))
	}
	tms[3].Cancel()
	tms[7].Cancel()
	s.RestoreBegin(42, 100, prioSeqBase+5, 7)
	if s.live != 0 || len(s.heap) != 0 {
		t.Fatalf("queue not empty after RestoreBegin: pending=%d heap=%d", s.live, len(s.heap))
	}
	if s.Now() != 42 || s.Fired() != 7 || s.seq != 100 || s.prioSeq != prioSeqBase+5 {
		t.Fatal("counters not restored")
	}
	// Arena slots must be reusable.
	tm := s.ScheduleRestored(50, 99, func(any) {}, nil)
	if !tm.Pending() || tm.Seq() != 99 {
		t.Fatal("ScheduleRestored after RestoreBegin broken")
	}
	// Counters must not advance on restored schedules.
	if s.seq != 100 || s.prioSeq != prioSeqBase+5 {
		t.Fatal("ScheduleRestored advanced lane counters")
	}
}
