package hierdrl

import (
	"math"

	"hierdrl/internal/checkpoint"
	"hierdrl/internal/cluster"
	"hierdrl/internal/sim"
)

// infTime is the horizon of an unbounded advance; every schedulable instant
// is finite (sim.Schedule rejects NaN and nothing schedules at +Inf).
const infTime = sim.Time(math.MaxFloat64)

// strictLane is the execution engine behind a Session's clock: one event
// lane on the caller's goroutine, bitwise-reproducible against the
// historical engine. The paper's control loop has one synchronisation point,
// the global tier's decision epoch at each arrival; arrivals enter the lane
// through a single pump timer whose firing is that epoch.
type strictLane struct {
	s  *Session
	sm *sim.Simulator
	// pump is the one pending-arrival timer, armed while arrivals are pending.
	pump sim.Timer
}

// pumpFire is the pump's event trampoline (package-level: no closure, no
// per-event allocation).
func pumpFire(a any) { a.(*strictLane).fire() }

// step fires one event no later than until and reports whether anything
// ran; infTime means unbounded.
func (e *strictLane) step(until sim.Time) bool {
	if next, ok := e.sm.PeekTime(); !ok || next > until {
		return false
	}
	return e.sm.Step()
}

// settle leaves the clock at exactly t once step(t) reported idle: it only
// moves the clock, since nothing is left at or before t.
func (e *strictLane) settle(t sim.Time) { e.sm.Run(t) }

// arm keeps exactly one pending-arrival timer scheduled, in the simulator's
// priority lane so a streamed arrival takes the same queue position an
// up-front-scheduled arrival historically had (arrivals win timestamp ties
// against simulation-spawned events). Call it whenever the pending queue's
// head may have changed.
func (e *strictLane) arm() {
	s := e.s
	if s.pq.pending() == 0 {
		return
	}
	at := sim.Time(s.pq.head().Arrival)
	if now := e.sm.Now(); at < now {
		// A late submission is dispatched at the current clock (its latency
		// still counts from the declared arrival).
		at = now
	}
	if e.pump.Pending() {
		if e.pump.At() <= at {
			return // already armed at or before the head arrival
		}
		e.pump.Cancel()
	}
	e.pump = e.sm.SchedulePriorityArg(at, pumpFire, e)
}

// fire is the decision epoch: refresh the view if the allocator reads it,
// allocate the head arrival, submit it, and re-arm for the next pending
// arrival. With WithEpochTrace it records one span per decision.
func (e *strictLane) fire() {
	s := e.s
	e.pump = sim.Timer{}
	if s.faults && s.cl.UnavailableServers() == s.cl.M() {
		// Every server is down or draining: park the pump at the earliest
		// instant one can change state — a repair, or a draining server
		// running dry (its power-off then schedules the real repair). The
		// triggering event sits in the same (normal) lane with an earlier
		// sequence number, so at that instant it fires before the pump does
		// and the retried dispatch sees the updated availability; each
		// re-park is therefore strictly later and the pump cannot spin.
		at := s.cl.NextAvailAt()
		if now := e.sm.Now(); at < now {
			at = now
		}
		e.pump = e.sm.ScheduleArg(at, pumpFire, e)
		return
	}
	if s.etrace != nil {
		e.fireTraced()
		return
	}
	if s.needsView {
		s.cl.SnapshotInto(&s.view)
	}
	j, target := s.allocate()
	s.cl.Submit(j, target)
	e.arm()
}

// fireTraced is fire's decision epoch with each segment timed into the epoch
// ring under the names the Chrome dump shows: run (the lane's events since
// the previous decision ended), refresh+encode, alloc+gemm and commit.
func (e *strictLane) fireTraced() {
	s, r := e.s, e.s.etrace
	sp := r.Begin(float64(e.sm.Now()))
	if s.needsView {
		s.cl.SnapshotInto(&s.view)
	}
	r.Lap(&sp.RefreshNs)
	j, target := s.allocate()
	r.Lap(&sp.AllocNs)
	s.cl.Submit(j, target)
	r.Lap(&sp.CommitNs)
	e.arm()
}

// tailState walks the pump timer with its exact sequence number, so the
// restored lane fires it in the same position bit for bit.
func (e *strictLane) tailState(c *checkpoint.Codec) {
	cluster.TimerState(c, &e.pump, e.sm, pumpFire, e)
}

// stop cancels the pump timer. Idempotent.
func (e *strictLane) stop() {
	if e.pump.Pending() {
		e.pump.Cancel()
	}
}
