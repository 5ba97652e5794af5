package cluster

import (
	"fmt"
	"math"
	"sort"

	"hierdrl/internal/checkpoint"
	"hierdrl/internal/fault"
	"hierdrl/internal/sim"
	"hierdrl/internal/trace"
)

// This file walks the complete resumable state of a cluster at an event
// boundary: every live job (waiting or executing), every server's structural
// and timer state, and the one aggregate that cannot be recomputed — the
// total-power accumulator, verbatim, so a restored run continues bit for
// bit. Every other aggregate is derived from the servers and rebuilt on
// decoding (rebuildAggregates), never stored. Each field is named once; the
// Codec decides whether the walk writes or reads it.
//
// Timers are captured as (at, seq) pairs and re-scheduled through
// sim.ScheduleRestored with their original trampolines, which the restoring
// side selects from the server's power state (a pending trans timer is a wake
// completion while StateWaking and a shutdown completion while
// StateShuttingDown; the fault timer is a crash while up and a repair while
// down). The lane's RestoreBegin must have run before a decoding walk so the
// explicit sequence numbers land in an empty queue.

// TimerState walks a presence flag plus the (at, seq) key of a pending timer;
// decoding re-schedules the event on sm with its original key. An instant
// before the lane clock (or NaN) marks a corrupt snapshot rather than a panic
// inside the scheduler.
func TimerState(c *checkpoint.Codec, tm *sim.Timer, sm *sim.Simulator, fn func(any), arg any) {
	var at sim.Time
	var seq int64
	present := !c.Decoding() && tm.Pending()
	if present {
		at, seq = tm.At(), tm.Seq()
	}
	c.Bool(&present)
	if c.Decoding() {
		*tm = sim.Timer{}
	}
	if !present {
		return
	}
	c.F64((*float64)(&at))
	c.I64(&seq)
	if !c.Decoding() || c.Err() != nil {
		return
	}
	if math.IsNaN(float64(at)) || at < sm.Now() {
		c.Fail(checkpoint.ErrCorrupt, "timer at %v before lane clock %v", at, sm.Now())
		return
	}
	*tm = sm.ScheduleRestored(at, seq, fn, arg)
}

func (r *Resources) state(c *checkpoint.Codec) {
	for p := range r {
		c.F64(&r[p])
	}
}

// runningJobs collects each server's executing jobs in a deterministic order:
// the crash-interrupt list verbatim under fault injection (its slot order is
// behavior — crashes evict in it), or the live completion timers discovered
// from the lane and sorted by sequence number on fault-free runs, where no
// server-side list exists.
func (c *Cluster) runningJobs() [][]*Job {
	running := make([][]*Job, len(c.servers))
	if c.faults {
		for i, s := range c.servers {
			running[i] = s.runJobs
		}
		return running
	}
	c.sm.ForEachPending(func(at sim.Time, seq int64, cb func(any), arg any) {
		if j, ok := arg.(*Job); ok {
			running[j.srv.id] = append(running[j.srv.id], j)
		}
	})
	for i := range running {
		r := running[i]
		sort.Slice(r, func(a, b int) bool { return r[a].done.Seq() < r[b].done.Seq() })
	}
	return running
}

// jobTable is a snapshot's live-job table: every waiting or executing job
// exactly once, in a canonical order. Everything else in the
// stream refers to a job by its table index.
type jobTable struct {
	jobs   []*Job
	idx    map[*Job]int32 // encoding direction only
	placed []bool         // decoding direction only: entries a reference named
}

func (t *jobTable) add(j *Job) {
	if _, ok := t.idx[j]; ok {
		panic(fmt.Sprintf("cluster: job %d reachable twice during checkpoint", j.ID))
	}
	t.idx[j] = int32(len(t.jobs))
	t.jobs = append(t.jobs, j)
}

// ref walks one cross-reference from a server's waiting (running false) or
// executing list: *j's table index, resolved back into *j when decoding. A
// decoded reference must name an entry no other reference named, in the
// phase its list implies — started exactly when executing, never finished —
// so a job queued twice or completing unstarted fails the walk here instead
// of panicking the run later; a failing reference leaves *j alone.
func (t *jobTable) ref(c *checkpoint.Codec, j **Job, running bool) {
	k := t.idx[*j]
	c.I32(&k)
	if !c.Decoding() || c.Err() != nil {
		return
	}
	if k < 0 || int(k) >= len(t.jobs) {
		c.Fail(checkpoint.ErrCorrupt, "job table index %d of %d", k, len(t.jobs))
		return
	}
	jk := t.jobs[k]
	switch {
	case t.placed[k]:
		c.Fail(checkpoint.ErrCorrupt, "job table index %d referenced twice", k)
		return
	case jk.started != running || jk.finished:
		c.Fail(checkpoint.ErrCorrupt, "job %d listed as executing=%v with started=%v finished=%v",
			jk.ID, running, jk.started, jk.finished)
		return
	}
	t.placed[k] = true
	*j = jk
}

// jobRecBytes is the fixed encoded size of one job-table record: six 8-byte
// scalar fields, NumResources demand entries, two booleans.
const jobRecBytes = (6+NumResources)*8 + 2

// State implements checkpoint.Stateful: the live job table, every server,
// and the total-power accumulator. It must run at an event boundary. Decoding
// overwrites a freshly constructed cluster of the same configuration,
// re-schedules every live timer on the (already RestoreBegin-reset) lane, and
// rebuilds the derived aggregates; a stored total power they contradict is
// corrupt.
func (c *Cluster) State(cd *checkpoint.Codec) {
	dec := cd.Decoding()
	tab := &jobTable{}
	running := make([][]*Job, len(c.servers)) // each server's executing jobs; filled when encoding
	if !dec {
		running = c.runningJobs()
		tab.idx = make(map[*Job]int32)
		for i, s := range c.servers {
			for _, j := range s.queue[s.qhead:] {
				tab.add(j)
			}
			for _, j := range running[i] {
				tab.add(j)
			}
		}
	}

	n := cd.Count(len(tab.jobs), jobRecBytes)
	if dec {
		tab.jobs, tab.placed = make([]*Job, n), make([]bool, n)
		for i := range tab.jobs {
			tab.jobs[i] = &Job{}
		}
	}
	for _, j := range tab.jobs {
		cd.Int(&j.ID)
		cd.F64((*float64)(&j.Arrival))
		cd.F64(&j.Duration)
		j.Req.state(cd)
		cd.Int(&j.Server)
		cd.F64((*float64)(&j.Started))
		cd.F64((*float64)(&j.Finished))
		cd.Bool(&j.started)
		cd.Bool(&j.finished)
		if dec && cd.Err() == nil {
			// A live job entered through submission, which validated it.
			tj := trace.Job{ID: j.ID, Arrival: float64(j.Arrival), Duration: j.Duration, Req: j.Req.ToTraceReq()}
			if err := tj.Validate(); err != nil {
				cd.Fail(checkpoint.ErrCorrupt, "%v", err)
			}
		}
	}
	faults := c.faults
	cd.Bool(&faults)
	if faults != c.faults {
		cd.Fail(checkpoint.ErrConfigMismatch, "snapshot faults=%v, cluster faults=%v", faults, c.faults)
	}

	for i, s := range c.servers {
		if c.serverState(cd, s, tab, running[i]); cd.Err() != nil {
			return
		}
	}

	cd.F64(&c.totalPower)
	if dec && cd.Err() == nil {
		c.rebuildAggregates()
		if err := c.checkAggregates(); err != nil {
			cd.Fail(checkpoint.ErrCorrupt, "%v", err)
		}
	}
}

// serverState walks one server; run lists its executing jobs when encoding.
func (c *Cluster) serverState(cd *checkpoint.Codec, s *Server, tab *jobTable, run []*Job) {
	dec := cd.Decoding()
	cd.Int((*int)(&s.state))
	st := s.state
	if st < StateSleep || st > StateDown {
		cd.Fail(checkpoint.ErrCorrupt, "server %d power state %d", s.id, st)
	}
	s.used.state(cd)
	s.pending.state(cd)
	cd.Bool(&s.degraded)
	cd.F64((*float64)(&s.degradedAt))
	cd.F64(&s.degradedSec)
	cd.Bool(&s.draining)
	cd.I64(&s.drains)
	if cd.Err() != nil {
		return
	}
	// Only the drain model drains and only the degrade model degrades; a
	// fault-free server's zero kind is the crash model's.
	if s.draining && (st != StateActive || s.fkind != fault.KindDrain) ||
		s.degraded && s.fkind != fault.KindDegrade {
		cd.Fail(checkpoint.ErrCorrupt, "server %d draining=%v degraded=%v in power state %v, which its fault model cannot produce",
			s.id, s.draining, s.degraded, st)
		return
	}
	if dec {
		// The effective speed follows from the degraded flag.
		if s.speed = s.baseSpeed; s.degraded {
			s.speed = s.degradeTo
		}
	}

	queue := s.queue[s.qhead:]
	nq := cd.Count(len(queue), 4)
	if dec {
		s.queue, s.qhead = make([]*Job, nq), 0
		queue = s.queue
	}
	for k := range queue {
		tab.ref(cd, &queue[k], false)
	}

	nr := cd.Count(len(run), 4+8+8)
	if cd.Err() != nil {
		return
	}
	if dec {
		// Jobs execute only on an active server, and wait only behind
		// executing ones or for a power transition to finish; any other
		// phase would strand them.
		if nr > 0 && st != StateActive || nq > 0 && nr == 0 && st != StateWaking && st != StateShuttingDown {
			cd.Fail(checkpoint.ErrCorrupt, "server %d in power state %v with %d waiting and %d executing jobs", s.id, st, nq, nr)
			return
		}
		run = make([]*Job, nr)
		s.runJobs, s.running = s.runJobs[:0], nr
	}
	for k := range run {
		var at sim.Time
		var seq int64
		if !dec {
			at, seq = run[k].done.At(), run[k].done.Seq()
		}
		tab.ref(cd, &run[k], true)
		cd.F64((*float64)(&at))
		cd.I64(&seq)
		if !dec {
			continue
		}
		if cd.Err() != nil {
			return
		}
		j := run[k]
		if math.IsNaN(float64(at)) || at < s.sm.Now() {
			cd.Fail(checkpoint.ErrCorrupt, "job %d completion at %v before lane clock %v", j.ID, at, s.sm.Now())
			return
		}
		j.srv = s
		j.done = s.sm.ScheduleRestored(at, seq, jobComplete, j)
		if c.faults {
			j.runIdx = int32(k)
			s.runJobs = append(s.runJobs, j)
		}
	}

	if dec {
		// The utilization and the pending demand are running sums of the
		// executing and the waiting jobs' demands: they may differ from a
		// fresh sum by rounding only.
		var ran, waiting Resources
		for _, j := range run {
			ran = ran.Add(j.Req)
		}
		for _, j := range queue {
			waiting = waiting.Add(j.Req)
		}
		if !s.used.near(ran) || !s.pending.near(waiting) {
			cd.Fail(checkpoint.ErrCorrupt, "server %d utilization %v and pending demand %v, its jobs demand %v and %v",
				s.id, s.used, s.pending, ran, waiting)
			return
		}
	}

	TimerState(cd, &s.timeout, s.sm, serverTimeoutExpire, s)
	transFn := serverWakeComplete
	if st == StateShuttingDown {
		transFn = serverShutdownComplete
	}
	TimerState(cd, &s.trans, s.sm, transFn, s)
	// The fault trampoline is selected from the model kind and the server's
	// phase: a down server's pending timer is always its repair; otherwise a
	// degrade model alternates start/end on the degraded flag, a drain
	// model's timer opens the next maintenance window (none is pending
	// mid-drain — onDrainStart consumed it), and a crash model's timer is the
	// next crash.
	fltFn := serverCrash
	switch {
	case st == StateDown:
		fltFn = serverRepair
	case c.faultKind == fault.KindDegrade && s.degraded:
		fltFn = serverDegradeEnd
	case c.faultKind == fault.KindDegrade:
		fltFn = serverDegradeStart
	case c.faultKind == fault.KindDrain:
		fltFn = serverDrainStart
	}
	TimerState(cd, &s.flt, s.sm, fltFn, s)
	if cd.Err() != nil {
		return
	}
	if got, want := s.trans.Pending(), st == StateWaking || st == StateShuttingDown; got != want {
		cd.Fail(checkpoint.ErrCorrupt, "server %d state %v with transition timer %v", s.id, st, got)
		return
	}
	if s.flt.Pending() && s.fclock == nil {
		cd.Fail(checkpoint.ErrCorrupt, "server %d fault timer without a failure clock", s.id)
		return
	}
	if s.draining && s.flt.Pending() {
		cd.Fail(checkpoint.ErrCorrupt, "server %d draining with a pending fault timer", s.id)
		return
	}

	cd.I64(&s.fails)
	cd.I64(&s.repairs)
	cd.F64((*float64)(&s.downAt))
	cd.F64(&s.downSec)
	cd.F64((*float64)(&s.lastT))
	cd.F64(&s.lastPower)
	cd.F64(&s.energyJ)
	cd.I64(&s.wakeups)
	cd.I64(&s.shutdowns)
	cd.I64(&s.completed)
	cd.Component(s.dpm)
	hasClock := s.fclock != nil
	cd.Bool(&hasClock)
	if cd.Err() == nil && hasClock != (s.fclock != nil) {
		cd.Fail(checkpoint.ErrConfigMismatch, "snapshot clock presence %v for server %d, cluster has %v",
			hasClock, s.id, s.fclock != nil)
	}
	if hasClock && s.fclock != nil {
		cd.Component(s.fclock)
	}
}

var _ checkpoint.Stateful = (*Cluster)(nil)
