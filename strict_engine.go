package hierdrl

import (
	"hierdrl/internal/checkpoint"
	"hierdrl/internal/cluster"
	"hierdrl/internal/sim"
)

// engine is the execution tier behind a Session's clock. The paper's control
// loop has one synchronisation point — the global tier's decision epoch at
// each arrival — and the two implementations differ only in how the cluster
// advances between epochs: strictLane fires one event lane on the caller's
// goroutine, shardRunner steps P lanes in parallel between epoch barriers.
// Everything above the seam (the checks, the tick, ingestion, retry,
// snapshots, the checkpoint container) has one body in Session.
type engine interface {
	// step performs one unit of work no later than until — one event in the
	// strict tier, one decision epoch or closing phase in the parallel tier —
	// and reports whether anything ran. infTime means unbounded.
	step(until sim.Time) bool
	// settle leaves the clock at exactly t once step(t) reported idle.
	settle(t sim.Time)
	// now is the simulated clock.
	now() sim.Time
	// arm tells the engine the pending queue's head may have changed.
	arm()
	// inflight lists the jobs already allocated but not yet handed to the
	// cluster, which a checkpoint adds to the cluster's job table.
	inflight() []*cluster.Job
	// tailState walks the engine's own scheduling state, which follows the
	// per-lane counters in the snapshot's engine section; in-flight jobs are
	// references into the cluster's job table.
	tailState(c *checkpoint.Codec, tab *cluster.JobTable)
	// stop releases the engine's timers and goroutines. Idempotent.
	stop()
}

// strictLane is the strict tier (the default, WithShards(p <= 1)): one event
// lane, one goroutine, bitwise-reproducible against the historical engine.
// Arrivals enter the lane through a single pump timer.
type strictLane struct {
	s  *Session
	sm *sim.Simulator
	// pump is the one pending-arrival timer, armed while arrivals are pending.
	pump sim.Timer
}

// pumpFire is the pump's event trampoline (package-level: no closure, no
// per-event allocation).
func pumpFire(a any) { a.(*strictLane).fire() }

func (e *strictLane) step(until sim.Time) bool {
	if next, ok := e.sm.PeekTime(); !ok || next > until {
		return false
	}
	return e.sm.Step()
}

// settle only moves the clock: step(t) left nothing at or before t.
func (e *strictLane) settle(t sim.Time) { e.sm.Run(t) }

func (e *strictLane) now() sim.Time { return e.sm.Now() }

// arm keeps exactly one pending-arrival timer scheduled, in the simulator's
// priority lane so a streamed arrival takes the same queue position an
// up-front-scheduled arrival historically had (arrivals win timestamp ties
// against simulation-spawned events).
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

// fire dispatches the head arrival: refresh the snapshot if the allocator
// reads it, allocate, submit, and re-arm for the next pending arrival.
func (e *strictLane) fire() {
	s := e.s
	e.pump = sim.Timer{}
	if s.fm != nil && s.cl.UnavailableServers() == s.cl.M() {
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
	if s.needsView {
		s.cl.SnapshotInto(&s.view)
	}
	j, target := s.allocate()
	s.cl.Submit(j, target)
	e.arm()
}

func (e *strictLane) inflight() []*cluster.Job { return nil }

// tailState walks the pump timer with its exact sequence number, so the
// restored lane fires it in the same position bit for bit.
func (e *strictLane) tailState(c *checkpoint.Codec, _ *cluster.JobTable) {
	cluster.TimerState(c, &e.pump, e.sm, pumpFire, e)
}

func (e *strictLane) stop() {
	if e.pump.Pending() {
		e.pump.Cancel()
	}
}
