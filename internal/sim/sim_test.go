package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"hierdrl/internal/mat"
)

func TestScheduleAndRunOrder(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	s.RunAll(10)
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v want %v", order, want)
		}
	}
	if s.Now() != 3 {
		t.Fatalf("clock = %v want 3", s.Now())
	}
	if s.Fired() != 3 {
		t.Fatalf("Fired = %d want 3", s.Fired())
	}
}

func TestTieBreakFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, func() { order = append(order, i) })
	}
	s.RunAll(20)
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events out of FIFO order: %v", order)
		}
	}
}

func TestScheduleAfter(t *testing.T) {
	s := New()
	var at Time
	s.Schedule(10, func() {
		s.ScheduleAfter(5, func() { at = s.Now() })
	})
	s.RunAll(10)
	if at != 15 {
		t.Fatalf("ScheduleAfter fired at %v want 15", at)
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	tm := s.Schedule(1, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("fresh timer should be pending")
	}
	if !tm.Cancel() {
		t.Fatal("Cancel should report success")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel should report failure")
	}
	s.RunAll(10)
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if tm.Pending() {
		t.Fatal("cancelled timer still pending")
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	s := New()
	tm := s.Schedule(1, func() {})
	s.RunAll(10)
	if tm.Cancel() {
		t.Fatal("Cancel after fire should report failure")
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		s.Schedule(at, func() { fired = append(fired, at) })
	}
	s.Run(3)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if s.Now() != 3 {
		t.Fatalf("clock after Run(3) = %v want 3", s.Now())
	}
	if s.live != 2 {
		t.Fatalf("pending = %d want 2", s.live)
	}
	// Running to a time with no events still advances the clock.
	s.Run(10)
	if s.Now() != 10 {
		t.Fatalf("clock after Run(10) = %v want 10", s.Now())
	}
	if len(fired) != 5 {
		t.Fatalf("fired %d events, want 5", len(fired))
	}
}

func TestEventsCanSchedule(t *testing.T) {
	s := New()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			s.ScheduleAfter(1, recurse)
		}
	}
	s.Schedule(0, recurse)
	s.RunAll(1000)
	if depth != 100 {
		t.Fatalf("depth = %d want 100", depth)
	}
	if s.Now() != 99 {
		t.Fatalf("clock = %v want 99", s.Now())
	}
}

func TestRunAllGuard(t *testing.T) {
	s := New()
	var loop func()
	loop = func() { s.ScheduleAfter(1, loop) }
	s.Schedule(0, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("RunAll must panic on runaway event loops")
		}
	}()
	s.RunAll(50)
}

func TestSchedulePanics(t *testing.T) {
	s := New()
	s.Schedule(5, func() {})
	s.Step()
	cases := map[string]func(){
		"Past":          func() { s.Schedule(1, func() {}) },
		"Nil":           func() { s.Schedule(10, nil) },
		"NaN":           func() { s.Schedule(Time(math.NaN()), func() {}) },
		"NegativeDelay": func() { s.ScheduleAfter(-1, func() {}) },
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestPeekTimeSkipsCancelled(t *testing.T) {
	s := New()
	tm := s.Schedule(1, func() {})
	s.Schedule(2, func() {})
	tm.Cancel()
	at, ok := s.PeekTime()
	if !ok || at != 2 {
		t.Fatalf("PeekTime = (%v,%v) want (2,true)", at, ok)
	}
}

// raceEnabled is set by race_test.go under -race; exact allocation pins are
// skipped there (the race runtime instruments allocations).
func skipAllocPinUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation pinning is meaningless under -race")
	}
}

// The steady-state event loop — a self-rearming timer driven through the
// payload API — must not allocate once the slot pool and heap are warm.
func TestEventLoopZeroAlloc(t *testing.T) {
	skipAllocPinUnderRace(t)
	s := New()
	var tick func(any)
	tick = func(a any) {
		s.ScheduleAfterArg(1, tick, a)
	}
	s.ScheduleArg(0, tick, s)
	for i := 0; i < 100; i++ {
		s.Step() // warm the pool
	}
	avg := testing.AllocsPerRun(1000, func() { s.Step() })
	if avg != 0 {
		t.Fatalf("steady-state Step allocates %v per event, want 0", avg)
	}
}

// The live count must stay consistent across schedule, cancel, and fire.
func TestPendingLiveCount(t *testing.T) {
	s := New()
	timers := make([]Timer, 10)
	for i := range timers {
		timers[i] = s.Schedule(Time(i+1), func() {})
	}
	if s.live != 10 {
		t.Fatalf("Pending = %d want 10", s.live)
	}
	timers[3].Cancel()
	timers[7].Cancel()
	if s.live != 8 {
		t.Fatalf("Pending after 2 cancels = %d want 8", s.live)
	}
	s.Step()
	s.Step()
	if s.live != 6 {
		t.Fatalf("Pending after 2 fires = %d want 6", s.live)
	}
	s.RunAll(100)
	if s.live != 0 {
		t.Fatalf("Pending after drain = %d want 0", s.live)
	}
}

// A fired timer's slot is recycled; a stale handle must not observe (or be
// able to cancel) the new occupant.
func TestStaleHandleCannotTouchRecycledSlot(t *testing.T) {
	s := New()
	old := s.Schedule(1, func() {})
	s.RunAll(10)
	fired := false
	fresh := s.Schedule(2, func() { fired = true })
	if old.Pending() {
		t.Fatal("stale handle reports pending")
	}
	if old.Cancel() {
		t.Fatal("stale handle cancelled a recycled slot")
	}
	if !fresh.Pending() {
		t.Fatal("fresh timer lost")
	}
	s.RunAll(10)
	if !fired {
		t.Fatal("recycled-slot event did not fire")
	}
}

// Cancelling more than half the queue must compact it: the raw heap length
// drops back to the live count instead of accumulating tombstones.
func TestCancelledTimerCompaction(t *testing.T) {
	s := New()
	n := 4 * minCompactLen
	timers := make([]Timer, n)
	for i := range timers {
		timers[i] = s.Schedule(Time(i+1), func() {})
	}
	for i := 0; i < n; i++ {
		if i%4 != 0 {
			timers[i].Cancel()
		}
	}
	live := n / 4
	if s.live != live {
		t.Fatalf("Pending = %d want %d", s.live, live)
	}
	if got := len(s.heap); got > live+minCompactLen {
		t.Fatalf("heap holds %d entries for %d live timers; compaction failed", got, live)
	}
	fired := 0
	var last Time
	for s.Step() {
		if s.Now() < last {
			t.Fatal("events fired out of order after compaction")
		}
		last = s.Now()
		fired++
	}
	if fired != live {
		t.Fatalf("fired %d events want %d", fired, live)
	}
}

// Compaction must survive the degenerate case where every surviving heap
// entry is cancelled (the drained-queue-then-final-cancel pattern of long
// FixedTimeout runs): the heapify of an empty kept slice must not index
// into it.
func TestCompactionWithAllEntriesCancelled(t *testing.T) {
	s := New()
	n := 2 * minCompactLen
	// n early live timers, n mid-range timers to cancel, one far-future
	// live timer. The early pool keeps the heap large enough that the
	// cancel loop below never crosses the compaction threshold itself.
	mid := make([]Timer, n)
	for i := 0; i < n; i++ {
		s.Schedule(Time(i+1), func() {})
	}
	for i := range mid {
		mid[i] = s.Schedule(Time(100000+i), func() {})
	}
	last := s.Schedule(200000, func() {})
	for i := range mid {
		mid[i].Cancel()
	}
	// Drive Step directly: each call fires one early live event (the top is
	// always live, so the lazy tombstone discard never runs) and the
	// cancelled fraction of the heap rises past one half.
	for i := 0; i < n; i++ {
		if !s.Step() {
			t.Fatal("ran out of events early")
		}
	}
	// The heap now holds n tombstones plus one live timer. Cancelling it
	// triggers compaction with zero survivors; the heapify of the empty
	// kept slice must not index into it.
	if !last.Cancel() {
		t.Fatal("last timer was not pending")
	}
	if s.live != 0 {
		t.Fatalf("Pending = %d want 0", s.live)
	}
	if got := len(s.heap); got != 0 {
		t.Fatalf("heap holds %d entries after full cancellation", got)
	}
	if s.Step() {
		t.Fatal("empty simulator stepped")
	}
}

// Priority-lane events at a tied timestamp fire before every normal event —
// even normal events scheduled earlier — and FIFO among themselves.
func TestPriorityLaneWinsTimestampTies(t *testing.T) {
	s := New()
	var order []string
	s.Schedule(5, func() { order = append(order, "normal1") })
	s.Schedule(5, func() { order = append(order, "normal2") })
	s.SchedulePriorityArg(5, func(a any) { order = append(order, a.(string)) }, "prio1")
	s.SchedulePriorityArg(5, func(a any) { order = append(order, a.(string)) }, "prio2")
	s.RunAll(10)
	want := []string{"prio1", "prio2", "normal1", "normal2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v want %v", order, want)
		}
	}
}

// Property: random schedules always fire in non-decreasing time order and
// the clock matches the last event fired.
func TestChronologicalProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := mat.NewRNG(seed)
		s := New()
		n := 1 + g.Intn(50)
		times := make([]float64, n)
		var fired []Time
		for i := range times {
			at := g.Float64() * 100
			times[i] = at
			s.Schedule(Time(at), func() { fired = append(fired, s.Now()) })
		}
		s.RunAll(1000)
		if len(fired) != n {
			return false
		}
		sort.Float64s(times)
		for i, ft := range fired {
			if float64(ft) != times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset fires exactly the complement.
func TestCancelSubsetProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := mat.NewRNG(seed)
		s := New()
		n := 1 + g.Intn(40)
		firedCount := 0
		timers := make([]Timer, n)
		for i := range timers {
			timers[i] = s.Schedule(Time(g.Float64()*50), func() { firedCount++ })
		}
		cancelled := 0
		for _, tm := range timers {
			if g.Float64() < 0.5 {
				tm.Cancel()
				cancelled++
			}
		}
		s.RunAll(1000)
		return firedCount == n-cancelled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
