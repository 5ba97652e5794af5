package cluster

import (
	"fmt"
	"math"
	"sort"

	"hierdrl/internal/checkpoint"
	"hierdrl/internal/fault"
	"hierdrl/internal/sim"
)

// This file walks the complete resumable state of a cluster at an event
// boundary: every live job (waiting or executing), every server's structural
// and timer state, and the per-shard incremental aggregates — verbatim, so a
// restored run's floating-point accumulators continue bit for bit. Each field
// is named once; the Codec decides whether the walk writes or reads it.
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

// state walks a jobs-in-system multiset verbatim, validating the cursor.
func (m *jobsMultiset) state(c *checkpoint.Codec) {
	buckets, max := m.buckets, m.max
	c.Ints(&buckets)
	c.Int(&max)
	if !c.Decoding() || c.Err() != nil {
		return
	}
	if len(buckets) == 0 || max < 0 || max >= len(buckets) {
		c.Fail(checkpoint.ErrCorrupt, "jobs multiset max %d over %d buckets", max, len(buckets))
		return
	}
	m.buckets, m.max = buckets, max
}

// aggregatesState walks the per-server aggregate arrays the shard groups and
// the Merger both keep. Their widths are construction config: a snapshot of
// another cluster size is a mismatch, named after owner.
func aggregatesState(c *checkpoint.Codec, owner string, prevPower []float64, prevJobs []int, reliTerms []float64, reliHot []uint64) {
	pp, pj, rt := prevPower, prevJobs, reliTerms
	c.F64s(&pp)
	c.Ints(&pj)
	c.F64s(&rt)
	nh := c.Count(len(reliHot), 8)
	if c.Err() != nil {
		return
	}
	if len(pp) != len(prevPower) || len(pj) != len(prevJobs) || len(rt) != len(reliTerms) {
		c.Fail(checkpoint.ErrConfigMismatch, "%s aggregate widths (%d,%d,%d), want (%d,%d,%d)",
			owner, len(pp), len(pj), len(rt), len(prevPower), len(prevJobs), len(reliTerms))
		return
	}
	if nh != len(reliHot) {
		c.Fail(checkpoint.ErrConfigMismatch, "hot bitset length %d, want %d", nh, len(reliHot))
		return
	}
	copy(prevPower, pp)
	copy(prevJobs, pj)
	copy(reliTerms, rt)
	for i := range reliHot {
		c.U64(&reliHot[i])
	}
}

// runningJobs collects each server's executing jobs in a deterministic order:
// the crash-interrupt list verbatim under fault injection (its slot order is
// behavior — crashes evict in it), or the live completion timers discovered
// from the lanes and sorted by sequence number on fault-free runs, where no
// server-side list exists.
func (c *Cluster) runningJobs() [][]*Job {
	running := make([][]*Job, len(c.servers))
	if c.faults {
		for i, s := range c.servers {
			running[i] = s.runJobs
		}
		return running
	}
	for si := range c.shards {
		c.shards[si].sm.ForEachPending(func(at sim.Time, seq int64, cb func(any), arg any) {
			if j, ok := arg.(*Job); ok {
				running[j.srv.id] = append(running[j.srv.id], j)
			}
		})
	}
	for i := range running {
		r := running[i]
		sort.Slice(r, func(a, b int) bool { return r[a].done.Seq() < r[b].done.Seq() })
	}
	return running
}

// JobTable is a snapshot's live-job table: every waiting, executing or
// in-flight job exactly once, in a canonical order. Everything else in the
// stream refers to a job by its table index.
type JobTable struct {
	jobs []*Job
	idx  map[*Job]int32 // encoding direction only
}

func (t *JobTable) add(j *Job) {
	if _, ok := t.idx[j]; ok {
		panic(fmt.Sprintf("cluster: job %d reachable twice during checkpoint", j.ID))
	}
	t.idx[j] = int32(len(t.jobs))
	t.jobs = append(t.jobs, j)
}

// Ref walks one cross-reference: *j's table index, resolved back into *j when
// decoding (an index outside the table fails the walk and leaves *j alone).
func (t *JobTable) Ref(c *checkpoint.Codec, j **Job) {
	k := t.idx[*j]
	c.I32(&k)
	if !c.Decoding() || c.Err() != nil {
		return
	}
	if k < 0 || int(k) >= len(t.jobs) {
		c.Fail(checkpoint.ErrCorrupt, "job table index %d of %d", k, len(t.jobs))
		return
	}
	*j = t.jobs[k]
}

// jobRecBytes is the fixed encoded size of one job-table record: six 8-byte
// scalar fields, NumResources demand entries, two booleans.
const jobRecBytes = (6+NumResources)*8 + 2

// State walks the cluster: the live job table, every server, and the
// per-shard aggregates. It must run at an event boundary with all shard
// observation logs drained. Encoding, extra lists live jobs held outside the
// cluster (the parallel tier's allocated-but-uncommitted dispatches);
// decoding overwrites a freshly constructed cluster of the same
// configuration and re-schedules every live timer on the (already
// RestoreBegin-reset) lanes. The returned table lets the caller walk its own
// cross-references (in-flight dispatches) in the same direction.
func (c *Cluster) State(cd *checkpoint.Codec, extra []*Job) *JobTable {
	dec := cd.Decoding()
	tab := &JobTable{}
	running := make([][]*Job, len(c.servers)) // each server's executing jobs; filled when encoding
	if !dec {
		if c.PendingLogs() {
			panic("cluster: State with undrained shard observation logs")
		}
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
		for _, j := range extra {
			tab.add(j)
		}
	}

	n := cd.Count(len(tab.jobs), jobRecBytes)
	if dec {
		tab.jobs = make([]*Job, n)
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
	}
	faults := c.faults
	cd.Bool(&faults)
	if faults != c.faults {
		cd.Fail(checkpoint.ErrConfigMismatch, "snapshot faults=%v, cluster faults=%v", faults, c.faults)
	}

	for i, s := range c.servers {
		if c.serverState(cd, s, tab, running[i]); cd.Err() != nil {
			return tab
		}
	}

	for si := range c.shards {
		g := &c.shards[si]
		cd.F64(&g.totalPower)
		cd.Int(&g.jobsInSystem)
		aggregatesState(cd, fmt.Sprintf("shard %d", si), g.prevPower, g.prevJobs, g.reliTerms, g.reliHot)
		cd.Bool(&g.reliDirty)
		cd.F64(&g.reliSum)
		g.jobs.state(cd)
		cd.I64(&g.completed)
		cd.I64(&g.submitted)
		cd.Int(&g.down)
		cd.Int(&g.draining)
		cd.I64(&g.fails)
	}
	if !dec || cd.Err() != nil {
		return tab
	}

	// The load index is derived state: rebuild it from the restored servers
	// rather than trusting (and having to validate) a serialized copy.
	for si := range c.shards {
		g := &c.shards[si]
		g.resetLogs()
		if g.idx == nil {
			continue
		}
		for i := g.lo; i < g.hi; i++ {
			g.idx.loads[i-g.lo] = c.servers[i].CommittedLoad()
		}
		g.idx.rebuild()
	}
	return tab
}

// serverState walks one server; run lists its executing jobs when encoding.
func (c *Cluster) serverState(cd *checkpoint.Codec, s *Server, tab *JobTable, run []*Job) {
	dec := cd.Decoding()
	cd.Int((*int)(&s.state))
	st := s.state
	if st < StateSleep || st > StateDown {
		cd.Fail(checkpoint.ErrCorrupt, "server %d power state %d", s.id, st)
	}
	s.used.state(cd)
	s.pending.state(cd)
	cd.Int(&s.running)
	cd.F64(&s.speed)
	cd.Bool(&s.degraded)
	cd.F64((*float64)(&s.degradedAt))
	cd.F64(&s.degradedSec)
	cd.Bool(&s.draining)
	cd.I64(&s.drains)
	if cd.Err() != nil {
		return
	}
	if !(s.speed > 0) || math.IsInf(s.speed, 1) {
		cd.Fail(checkpoint.ErrCorrupt, "server %d effective speed %v", s.id, s.speed)
		return
	}
	if s.draining && st != StateActive {
		cd.Fail(checkpoint.ErrCorrupt, "server %d draining in power state %v", s.id, st)
		return
	}

	queue := s.queue[s.qhead:]
	nq := cd.Count(len(queue), 4)
	if dec {
		s.queue, s.qhead = make([]*Job, nq), 0
		queue = s.queue
	}
	for k := range queue {
		tab.Ref(cd, &queue[k])
	}

	nr := cd.Count(len(run), 4+8+8)
	if cd.Err() != nil {
		return
	}
	if dec {
		if s.running != nr {
			cd.Fail(checkpoint.ErrCorrupt, "server %d running count %d, %d completion timers", s.id, s.running, nr)
			return
		}
		run = make([]*Job, nr)
		s.runJobs = s.runJobs[:0]
	}
	for k := range run {
		var at sim.Time
		var seq int64
		if !dec {
			at, seq = run[k].done.At(), run[k].done.Seq()
		}
		tab.Ref(cd, &run[k])
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

// State implements checkpoint.Stateful: the merged-replay bookkeeping
// verbatim (the replayed FP accumulators must continue bit for bit, exactly
// like the shard-local ones), into a Merger of the same cluster size.
func (m *Merger) State(c *checkpoint.Codec) {
	c.F64(&m.totalPower)
	c.Int(&m.jobsInSystem)
	aggregatesState(c, "merger", m.prevPower, m.prevJobs, m.reliTerms, m.reliHot)
	m.jobs.state(c)
}

var _ checkpoint.Stateful = (*Merger)(nil)
