// Package sim provides a deterministic discrete-event simulation engine:
// a monotone simulated clock and an index-addressable event queue with
// cancellable timers. Events scheduled for the same instant fire in
// scheduling order (FIFO tie-break by sequence number), which keeps
// whole-cluster simulations exactly reproducible.
//
// The engine is built for allocation-free steady-state stepping: timer slots
// live in a pooled arena addressed by a 4-ary implicit heap of slot indices,
// freed slots are recycled through a free list, and handles are generation
// tagged so Cancel stays O(1)-safe against slot reuse. Callbacks carry an
// explicit argument payload (fn func(any), arg) so models can schedule
// events without constructing a closure per event; the classic func()
// convenience wrappers remain for tests and cold paths.
package sim

import (
	"fmt"
	"math"
)

// Time is simulated time in seconds since the start of the run. A dedicated
// type keeps simulated instants from mixing silently with durations or wall
// time.
type Time float64

// Seconds returns the time as a raw float64 second count.
func (t Time) Seconds() float64 { return float64(t) }

// prioSeqBase is the starting sequence number of the priority lane (see
// SchedulePriorityArg). Priority sequence numbers count up from here and
// normal sequence numbers count up from zero, so every priority event orders
// before every normal event at the same instant while both lanes stay FIFO
// among themselves.
const prioSeqBase = math.MinInt64 / 2

// slot is one pooled timer. A slot cycles free -> pending -> (cancelled ->)
// free; gen increments on every release so stale handles can never observe a
// recycled slot.
type slot struct {
	at        Time
	seq       int64
	fn        func(any)
	arg       any
	gen       uint32
	cancelled bool
}

// Timer is a handle to a scheduled event. The zero value is inert: Cancel
// and Pending report false. Handles are value types — copying one is free
// and all copies observe the same underlying event.
type Timer struct {
	s   *Simulator
	idx int32
	gen uint32
	at  Time
}

// Cancel prevents the timer from firing. Reports whether the timer was still
// pending. Cancelled slots stay in the heap and are discarded lazily at pop
// time (with periodic compaction), so Cancel is O(1).
func (tm Timer) Cancel() bool {
	s := tm.s
	if s == nil {
		return false
	}
	sl := &s.slots[tm.idx]
	if sl.gen != tm.gen || sl.cancelled {
		return false
	}
	sl.cancelled = true
	sl.fn = nil
	sl.arg = nil
	s.live--
	s.nCancelled++
	// Lazy compaction: once cancelled entries outnumber live ones the heap
	// walks mostly dead weight; rebuild it from the survivors.
	if s.nCancelled > len(s.heap)/2 && len(s.heap) >= minCompactLen {
		s.compact()
	}
	return true
}

// Pending reports whether the timer is scheduled and not yet fired or
// cancelled.
func (tm Timer) Pending() bool {
	s := tm.s
	if s == nil {
		return false
	}
	sl := &s.slots[tm.idx]
	return sl.gen == tm.gen && !sl.cancelled
}

// At returns the instant the timer is (or was) scheduled for.
func (tm Timer) At() Time { return tm.at }

// Seq returns the sequence number of a pending timer. Together with At it
// fully determines the timer's position in the event order, which is what a
// checkpoint must preserve: restoring a timer with its exact (at, seq) key
// reproduces the original firing order bit for bit. It panics on a fired,
// cancelled, or zero timer — those have no meaningful sequence number.
func (tm Timer) Seq() int64 {
	if !tm.Pending() {
		panic("sim: Seq on non-pending timer")
	}
	return tm.s.slots[tm.idx].seq
}

// minCompactLen keeps compaction from thrashing on tiny queues.
const minCompactLen = 64

// Simulator owns the clock and the event queue. The zero value is not
// usable; construct with New.
type Simulator struct {
	now   Time
	slots []slot
	free  []int32 // recycled slot indices
	heap  []int32 // 4-ary min-heap of slot indices, ordered by (at, seq)

	seq        int64 // next normal-lane sequence number
	prioSeq    int64 // next priority-lane sequence number
	live       int   // scheduled and not cancelled
	nCancelled int   // cancelled entries still in the heap
	nFired     int64
}

// New returns a simulator with the clock at 0.
func New() *Simulator { return &Simulator{prioSeq: prioSeqBase} }

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// callClosure adapts the zero-argument convenience API onto the payload
// representation. Func values are pointer-shaped, so storing one in the arg
// interface does not allocate.
func callClosure(a any) { a.(func())() }

// Schedule registers fn to run at the absolute instant at. Scheduling in the
// past panics — it always indicates a logic error in the model.
func (s *Simulator) Schedule(at Time, fn func()) Timer {
	if fn == nil {
		panic("sim: Schedule with nil callback")
	}
	return s.ScheduleArg(at, callClosure, fn)
}

// ScheduleAfter registers fn to run after the given delay in seconds.
func (s *Simulator) ScheduleAfter(delay float64, fn func()) Timer {
	if delay < 0 {
		panic(fmt.Sprintf("sim: ScheduleAfter negative delay %v", delay))
	}
	return s.Schedule(s.now+Time(delay), fn)
}

// ScheduleArg registers fn(arg) to run at the absolute instant at. Unlike
// Schedule it needs no closure: with a package-level fn and a pointer-shaped
// arg the call is allocation-free, which makes steady-state event loops
// zero-alloc.
func (s *Simulator) ScheduleArg(at Time, fn func(any), arg any) Timer {
	tm := s.schedule(at, fn, arg, s.seq)
	s.seq++
	return tm
}

// ScheduleAfterArg registers fn(arg) to run after the given delay in seconds.
func (s *Simulator) ScheduleAfterArg(delay float64, fn func(any), arg any) Timer {
	if delay < 0 {
		panic(fmt.Sprintf("sim: ScheduleAfterArg negative delay %v", delay))
	}
	return s.ScheduleArg(s.now+Time(delay), fn, arg)
}

// SchedulePriorityArg registers fn(arg) in the priority lane: at equal
// timestamps a priority event fires before every normal event, and priority
// events fire FIFO among themselves. The trace pump uses it so a streamed
// arrival takes the exact queue position an up-front-scheduled arrival would
// have had (arrivals were historically all scheduled before the run began,
// giving them the smallest sequence numbers).
func (s *Simulator) SchedulePriorityArg(at Time, fn func(any), arg any) Timer {
	tm := s.schedule(at, fn, arg, s.prioSeq)
	s.prioSeq++
	return tm
}

func (s *Simulator) schedule(at Time, fn func(any), arg any, seq int64) Timer {
	if fn == nil {
		panic("sim: Schedule with nil callback")
	}
	if at < s.now {
		panic(fmt.Sprintf("sim: Schedule in the past: %v < now %v", at, s.now))
	}
	if math.IsNaN(float64(at)) {
		panic("sim: Schedule at NaN")
	}
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slots = append(s.slots, slot{})
		idx = int32(len(s.slots) - 1)
	}
	sl := &s.slots[idx]
	sl.at = at
	sl.seq = seq
	sl.fn = fn
	sl.arg = arg
	sl.cancelled = false
	s.live++
	s.heapPush(idx)
	return Timer{s: s, idx: idx, gen: sl.gen, at: at}
}

// RestoreBegin resets the simulator to an empty queue positioned at a
// checkpointed instant: clock at now, lane counters at the saved seq/prioSeq,
// and the fired count at nFired. Existing slots are released (outstanding
// handles are invalidated via the generation bump) but the arena itself is
// kept, so restoration reuses the allocation. Callers follow up with one
// ScheduleRestored per live checkpointed timer.
func (s *Simulator) RestoreBegin(now Time, seq, prioSeq, nFired int64) {
	for _, idx := range s.heap {
		if s.slots[idx].cancelled {
			s.nCancelled--
		} else {
			s.live--
		}
		s.release(idx)
	}
	s.heap = s.heap[:0]
	if s.live != 0 || s.nCancelled != 0 {
		panic("sim: RestoreBegin bookkeeping mismatch")
	}
	s.now = now
	s.seq = seq
	s.prioSeq = prioSeq
	s.nFired = nFired
}

// ScheduleRestored re-registers a checkpointed timer with its exact original
// (at, seq) key, without advancing either lane counter — the counters were
// already restored wholesale by RestoreBegin. Unlike Schedule it accepts
// at == now with any seq relation, since a restored queue legitimately holds
// same-instant events from both lanes.
func (s *Simulator) ScheduleRestored(at Time, seq int64, fn func(any), arg any) Timer {
	if at < s.now {
		panic(fmt.Sprintf("sim: ScheduleRestored in the past: %v < now %v", at, s.now))
	}
	return s.schedule(at, fn, arg, seq)
}

// Counters returns the lane's monotone bookkeeping — the next normal and
// priority sequence numbers and the fired-event count — exactly the values a
// later RestoreBegin needs to reproduce this lane's scheduling behavior.
func (s *Simulator) Counters() (seq, prioSeq, nFired int64) {
	return s.seq, s.prioSeq, s.nFired
}

// ForEachPending calls fn for every scheduled, non-cancelled event, in
// unspecified (heap) order. Checkpointing uses it to discover live events
// whose owners keep no external handle (job completion timers on fault-free
// runs); callers needing a canonical order sort by seq.
func (s *Simulator) ForEachPending(fn func(at Time, seq int64, cb func(any), arg any)) {
	for _, idx := range s.heap {
		sl := &s.slots[idx]
		if sl.cancelled {
			continue
		}
		fn(sl.at, sl.seq, sl.fn, sl.arg)
	}
}

// release returns a popped slot to the free list, invalidating outstanding
// handles via the generation bump.
func (s *Simulator) release(idx int32) {
	sl := &s.slots[idx]
	sl.fn = nil
	sl.arg = nil
	sl.gen++
	s.free = append(s.free, idx)
}

// Step fires the next pending event, advancing the clock to its timestamp.
// It reports whether an event fired (false means the queue is empty).
func (s *Simulator) Step() bool {
	for len(s.heap) > 0 {
		idx := s.heapPop()
		sl := &s.slots[idx]
		if sl.cancelled {
			s.nCancelled--
			s.release(idx)
			continue
		}
		s.now = sl.at
		fn, arg := sl.fn, sl.arg
		s.live--
		s.release(idx)
		s.nFired++
		fn(arg)
		return true
	}
	return false
}

// Run fires events until the queue is empty or the next event is strictly
// after until. The clock ends at min(until, last fired event); it never
// exceeds until.
func (s *Simulator) Run(until Time) {
	for {
		next, ok := s.PeekTime()
		if !ok || next > until {
			break
		}
		s.Step()
	}
	if s.now < until {
		s.now = until
	}
}

// RunBefore fires every event scheduled strictly before t, leaving the clock
// at the last fired event (it never advances the clock to t on its own), so
// a dispatch at t made next still precedes same-instant lane events, as the
// engine's priority-lane arrivals do. Tests drive a lane by hand with it. It
// reports the number of events fired.
func (s *Simulator) RunBefore(t Time) int {
	n := 0
	for {
		next, ok := s.PeekTime()
		if !ok || next >= t {
			return n
		}
		s.Step()
		n++
	}
}

// AdvanceTo moves the clock forward to t without firing anything. It panics
// if t is in the past or if an event strictly before t is still pending —
// jumping over a scheduled event would corrupt the simulation order. Tests
// use it to position a quiescent lane at a dispatch instant.
func (s *Simulator) AdvanceTo(t Time) {
	if t < s.now {
		panic(fmt.Sprintf("sim: AdvanceTo into the past: %v < now %v", t, s.now))
	}
	if next, ok := s.PeekTime(); ok && next < t {
		panic(fmt.Sprintf("sim: AdvanceTo %v over pending event at %v", t, next))
	}
	s.now = t
}

// RunAll fires every pending event. It panics if more than maxEvents fire,
// protecting tests from runaway self-rescheduling models.
func (s *Simulator) RunAll(maxEvents int64) {
	var fired int64
	for s.Step() {
		fired++
		if fired > maxEvents {
			panic(fmt.Sprintf("sim: RunAll exceeded %d events", maxEvents))
		}
	}
}

// PeekTime returns the timestamp of the next pending event.
func (s *Simulator) PeekTime() (Time, bool) {
	for len(s.heap) > 0 {
		idx := s.heap[0]
		sl := &s.slots[idx]
		if sl.cancelled {
			s.heapPop()
			s.nCancelled--
			s.release(idx)
			continue
		}
		return sl.at, true
	}
	return 0, false
}

// Pending returns the number of queued (non-cancelled) events. It is O(1):
// the live count is maintained across Schedule/Cancel/Step.
func (s *Simulator) Pending() int { return s.live }

// Fired returns the total number of events that have executed.
func (s *Simulator) Fired() int64 { return s.nFired }

// queueLen reports the raw heap length including lazily-cancelled entries
// (exposed to tests asserting compaction behaviour).
func (s *Simulator) queueLen() int { return len(s.heap) }

// --- 4-ary implicit heap over slot indices ---
//
// A 4-ary layout halves the tree depth of a binary heap: sift-down touches
// fewer cache lines per level and the four-child comparison runs over
// adjacent heap entries. Pop order depends only on the (at, seq) total order
// — slot keys are unique — so heap shape never affects event ordering.

// eventLess orders slot a strictly before slot b.
func (s *Simulator) eventLess(a, b int32) bool {
	sa, sb := &s.slots[a], &s.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

func (s *Simulator) heapPush(idx int32) {
	s.heap = append(s.heap, idx)
	s.siftUp(len(s.heap) - 1)
}

func (s *Simulator) heapPop() int32 {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	s.heap = h[:n]
	if n > 0 {
		s.siftDown(0)
	}
	return top
}

func (s *Simulator) siftUp(i int) {
	h := s.heap
	item := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !s.eventLess(item, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = item
}

func (s *Simulator) siftDown(i int) {
	h := s.heap
	n := len(h)
	item := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if s.eventLess(h[c], h[best]) {
				best = c
			}
		}
		if !s.eventLess(h[best], item) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = item
}

// compact rebuilds the heap from its non-cancelled entries and frees the
// cancelled slots. Pop order is unaffected: it is fully determined by the
// (at, seq) key order, not by heap layout.
func (s *Simulator) compact() {
	h := s.heap
	kept := h[:0]
	for _, idx := range h {
		if s.slots[idx].cancelled {
			s.nCancelled--
			s.release(idx)
			continue
		}
		kept = append(kept, idx)
	}
	s.heap = kept
	// Bottom-up heapify. The guard matters: for an empty kept slice Go's
	// truncating division makes (len-2)/4 zero, which would sift an empty
	// heap.
	for i := (len(kept) - 2) / 4; i >= 0 && len(kept) > 1; i-- {
		s.siftDown(i)
	}
}
