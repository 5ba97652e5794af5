package hierdrl

import (
	"math"
	"sync"
	"sync/atomic"

	"hierdrl/internal/checkpoint"
	"hierdrl/internal/cluster"
	"hierdrl/internal/sim"
	"hierdrl/internal/telemetry"
)

// This file is the parallel execution tier (WithShards(P), P >= 2): the
// cluster is partitioned into P contiguous server groups, each owning its
// own event lane (timers, FCFS queues, power-mode transitions, incremental
// reliability partial sums) stepped by a dedicated worker goroutine. The
// hierarchical model makes this sound: below the global allocation tier,
// servers never interact — every event a server schedules lands on that same
// server — so between two arrival decision epochs the P lanes are fully
// independent. The global agent's decision epoch is the only synchronization
// point. Each epoch runs as one barrier-delimited phase:
//
//	release -> workers: [commit previous dispatch] + run own lane up to the
//	           epoch instant + [refresh own view range / pre-encode]
//	join    -> coordinator: replay merged observation logs (change feed for
//	           the DRL reward integral, completions for metrics + observer,
//	           transitions), then allocate the arrival against the gathered
//	           state, and pend its dispatch for the next phase.
//
// Determinism: lanes are deterministic sequential simulators, per-shard RNG
// chains are derived exactly as in the strict tier, and every merged replay
// orders records by (time, shard index) — a pure function of the simulation,
// never of goroutine scheduling. Results at a fixed P are bitwise
// reproducible run to run, and bitwise equal to the strict tier's — the tests
// assert exactly that — with one caveat (DESIGN.md §12): when two shards fire
// an observable event at the same instant the tiers may order the tie
// differently, which has probability ~0 under continuous arrival processes.

// infTime bounds an unbounded phase; every schedulable instant is finite
// (sim.Schedule rejects NaN and nothing schedules at +Inf), so running
// "before infTime" drains a lane.
const infTime = sim.Time(math.MaxFloat64)

// runMode selects what a worker does with its lane during one phase.
type runMode uint8

const (
	// runBefore fires events strictly before cmd.until (epoch phases: the
	// dispatch at the epoch instant must precede same-instant lane events,
	// mirroring the strict tier's priority-lane arrivals).
	runBefore runMode = iota
	// runThrough fires events at or before cmd.until and advances the lane
	// clock to exactly cmd.until (StepUntil's closing phase).
	runThrough
	// runAll drains the lane (closing phases of Drain).
	runAll
)

// dispatch is one allocated arrival awaiting commitment: the target shard
// executes it at the start of the next phase, which keeps the Submit's
// cascade (queueing, wake-up, job start, DPM arrival epoch) inside the
// parallel region instead of on the coordinator's critical path.
type dispatch struct {
	job    *cluster.Job
	target int // server index
	shard  int // target's shard
	at     sim.Time
}

// phaseCmd is the coordinator-published work order of one phase. It is
// written before the barrier release and read after the workers observe it,
// so it needs no lock of its own. d carries the dispatches this phase
// commits, sorted by instant; without faults at most one is ever in flight,
// but crash requeues can schedule a new dispatch before an uncommitted one,
// so the in-flight set is a list.
type phaseCmd struct {
	mode    runMode
	until   sim.Time
	refresh bool // refresh gather-view ranges (and pre-encode for DRL)
	d       []dispatch
	stop    bool
}

// epochBarrier is the two-sided synchronization of one phase: a generation
// counter under a condition variable releases the workers, and an arrival
// countdown hands completion back to the coordinator through a one-slot
// channel. Workers park at once, never spin first: the last worker's arrive()
// readies the coordinator on that worker's own P, so a spin there sits on the
// critical path — and the next release is a replay and an allocation away, so
// it would lose anyway (DESIGN.md §12 has the measurement).
type epochBarrier struct {
	p       int // worker count (shards 1..P-1; shard 0 is the coordinator's)
	gen     atomic.Uint64
	arrived atomic.Int32
	done    chan struct{}
	mu      sync.Mutex
	cond    *sync.Cond
}

func (b *epochBarrier) init(p int) {
	b.p = p
	b.done = make(chan struct{}, 1)
	b.cond = sync.NewCond(&b.mu)
}

// release publishes the new generation and wakes parked workers. The
// arrival count is reset first — no worker from the previous phase can still
// arrive, because the coordinator joined it.
func (b *epochBarrier) release() {
	b.arrived.Store(0)
	b.mu.Lock()
	b.gen.Add(1)
	b.cond.Broadcast()
	b.mu.Unlock()
}

// await blocks until the generation moves past gen and returns the new one.
func (b *epochBarrier) await(gen uint64) uint64 {
	b.mu.Lock()
	for b.gen.Load() == gen {
		b.cond.Wait()
	}
	g := b.gen.Load()
	b.mu.Unlock()
	return g
}

// arrive signals this worker's phase completion; the last one releases the
// coordinator.
func (b *epochBarrier) arrive() {
	if b.arrived.Add(1) == int32(b.p) {
		b.done <- struct{}{}
	}
}

// join blocks the coordinator until every worker arrived.
func (b *epochBarrier) join() { <-b.done }

// shardRunner is the parallel tier's engine: P lane workers, the epoch
// barrier and the merged-replay machinery. The allocation view is the
// session's: shard workers refresh disjoint server ranges of it during
// refresh phases, so "merging" the per-shard view buffers is free — they
// alias one backing array.
type shardRunner struct {
	s   *Session
	p   int
	bar epochBarrier
	cmd phaseCmd

	// clock is the engine clock: the max lane clock, bumped at every join.
	// It never runs behind any server's energy-integration watermark, so
	// barrier-time snapshots and checkpoints integrate consistently.
	clock sim.Time

	// pends holds the allocated-but-uncommitted dispatches, sorted by
	// instant (stable on ties); each is executed by its target shard in the
	// next phase whose until covers it. Fault-free runs keep at most one
	// entry — arrival instants are monotone — but a crash requeue can put a
	// new dispatch ahead of an uncommitted one, so this is a list (a single
	// slot would drop the overtaken dispatch). commit is the reusable
	// per-phase buffer handed to the workers through phaseCmd.
	pends  []dispatch
	commit []dispatch

	stopped bool
}

// runPhase executes one phase's work for shard id: commit the dispatch if it
// targets this shard, step the lane, refresh the local view range. Shard 0
// runs on the coordinator itself (saving one goroutine handoff per phase);
// shards 1..P-1 run in their workers.
func (r *shardRunner) runPhase(id int) {
	cl := r.s.cl
	lane := cl.Lane(id)
	c := &r.cmd
	var ps *telemetry.PhaseSpan
	var t0 int64
	if r.s.etrace != nil {
		ps = &r.s.etrace.Cur().Shards[id]
		t0 = r.s.etrace.NowNs()
		if id == 0 {
			ps.StartNs = t0 // the coordinator's inline shard never waits
		}
	}
	for i := range c.d {
		d := &c.d[i]
		if d.shard != id {
			continue
		}
		// Quiesce the lane before the dispatch instant first: an earlier
		// commit this phase may have scheduled events below d.at. Fault-free
		// runs commit one dispatch per phase with the lane already run
		// before d.at, so the extra RunBefore is a no-op there.
		lane.RunBefore(d.at)
		lane.AdvanceTo(d.at)
		cl.Submit(d.job, d.target)
	}
	if ps != nil {
		now := r.s.etrace.NowNs()
		ps.CommitNs = now - t0
		t0 = now
	}
	switch c.mode {
	case runBefore:
		lane.RunBefore(c.until)
	case runThrough:
		lane.Run(c.until)
	case runAll:
		lane.RunBefore(infTime)
	}
	if ps != nil {
		now := r.s.etrace.NowNs()
		ps.RunNs = now - t0
		t0 = now
	}
	if c.refresh {
		lo, hi := cl.ShardRange(id)
		cl.SnapshotRange(&r.s.view, lo, hi)
		if r.s.preEncoded {
			r.s.agent.PreEncodeServers(&r.s.view, lo, hi)
		}
	}
	if ps != nil {
		ps.RefreshNs = r.s.etrace.NowNs() - t0
	}
}

// worker is one lane's goroutine (shards 1..P-1): wait for a phase, run it,
// arrive at the barrier.
func (r *shardRunner) worker(id int) {
	var gen uint64
	for {
		var waitStart int64
		if r.s.etrace != nil {
			waitStart = r.s.etrace.NowNs()
		}
		gen = r.bar.await(gen)
		if r.cmd.stop {
			r.bar.arrive()
			return
		}
		if r.s.etrace != nil {
			// The span was opened by the coordinator before the release this
			// await observed; only this worker touches its Shards slot.
			ps := &r.s.etrace.Cur().Shards[id]
			ps.StartNs = waitStart
			ps.WaitNs = r.s.etrace.NowNs() - waitStart
		}
		r.runPhase(id)
		r.bar.arrive()
	}
}

// round runs one barrier-delimited phase and replays the merged observation
// logs. Pending dispatches are attached when the phase covers their instant
// (checked explicitly so a bounded StepUntil never commits a dispatch beyond
// its horizon). The coordinator overlaps shard 0's phase work with the
// workers' before joining.
func (r *shardRunner) round(mode runMode, until sim.Time, refresh bool) {
	r.cmd = phaseCmd{mode: mode, until: until, refresh: refresh}
	if n := r.coveredPends(until); n > 0 {
		r.commit = append(r.commit[:0], r.pends[:n]...)
		r.pends = r.pends[:copy(r.pends, r.pends[n:])]
		r.cmd.d = r.commit
	}
	if r.s.etrace != nil {
		// Open the span before the release so workers can stamp their slots
		// (runMode and the trace's mode constants coincide by construction).
		r.s.etrace.Begin(float64(until), uint8(mode))
	}
	r.bar.release()
	r.runPhase(0)
	r.bar.join()
	if c := r.s.cl.Clock(); c > r.clock {
		r.clock = c
	}
	var sp *telemetry.EpochSpan
	if r.s.etrace != nil {
		sp = r.s.etrace.Cur()
		sp.ReplayStartNs = r.s.etrace.NowNs()
	}
	// Replay the merged observation streams on the coordinator: the change
	// feed into the DRL reward integral, completions into the collector, the
	// observer hooks and the job pool, transitions into the observer.
	r.s.cl.ReplayLogs(r.s.merger)
	if sp != nil {
		sp.ReplayNs = r.s.etrace.NowNs() - sp.ReplayStartNs
	}
}

// anyEvents reports whether any lane still has pending events.
func (r *shardRunner) anyEvents() bool {
	for i := 0; i < r.p; i++ {
		if r.s.cl.Lane(i).Pending() > 0 {
			return true
		}
	}
	return false
}

// coveredPends returns how many leading entries of the sorted in-flight
// dispatch list fall at or before until (eligible to commit this phase).
func (r *shardRunner) coveredPends(until sim.Time) int {
	n := 0
	for n < len(r.pends) && r.pends[n].at <= until {
		n++
	}
	return n
}

// nextEventTime returns the earliest pending instant across all lanes
// (infTime when every lane is idle).
func (r *shardRunner) nextEventTime() sim.Time {
	h := infTime
	for i := 0; i < r.p; i++ {
		if at, ok := r.s.cl.Lane(i).PeekTime(); ok && at < h {
			h = at
		}
	}
	return h
}

// step advances the engine by one decision epoch no later than until:
// quiesce every lane up to the next arrival's dispatch instant, allocate it
// against the gathered state, and pend its dispatch. With the head arrival
// beyond until it reports idle (settle then closes the horizon); with no
// arrivals left and no horizon it runs one closing phase that commits the
// last dispatch and drains the lanes.
func (r *shardRunner) step(until sim.Time) bool {
	s := r.s
	if s.pq.pending() > 0 {
		at := sim.Time(s.pq.head().Arrival)
		if r.clock > at {
			// A late submission: like the strict pump, dispatch at the
			// current clock (latency still counts from the declared arrival).
			at = r.clock
		}
		if n := len(r.pends); n > 0 && r.pends[n-1].at > at {
			// Decision instants must never run backwards (the DRL reward
			// integrator advances to each one). A fault requeue can put a
			// re-arrival at the head that precedes an uncommitted dispatch's
			// instant — committed ones are already covered by r.clock — so
			// clamp to the newest pended instant. Fault-free runs never
			// requeue and this is a no-op.
			at = r.pends[n-1].at
		}
		if at > until {
			// The arrival stays pending for a later call, exactly like the
			// strict pump timer it replaces.
			return false
		}
		r.round(runBefore, at, s.needsView)
		if s.fm != nil && s.cl.UnavailableServers() == s.cl.M() {
			// Every server is down or draining at the dispatch instant: run
			// the lanes through the earliest availability change (a repair,
			// or a draining server running dry) instead of allocating into a
			// dead cluster — if it lies within the horizon. The arrival
			// re-dispatches on the next step against the updated state (the
			// sharded analogue of the strict pump parking at NextAvailAt).
			ra := s.cl.NextAvailAt()
			if ra > until {
				return false
			}
			r.round(runThrough, ra, false)
			return true
		}
		r.dispatchNext(at)
		return true
	}
	if until != infTime {
		return false
	}
	if s.fm != nil {
		// With failure clocks armed the lanes never drain — every server
		// always holds a crash or repair timer — so runAll would spin
		// forever. Closing phases instead advance event by event; the
		// session stops them once every ingested job completed or was lost.
		h := r.nextEventTime()
		if len(r.pends) > 0 && r.pends[0].at < h {
			h = r.pends[0].at
		}
		if h == infTime {
			return false
		}
		r.round(runThrough, h, false)
		return true
	}
	if len(r.pends) > 0 || r.anyEvents() {
		r.round(runAll, infTime, false)
		return true
	}
	return false
}

// dispatchNext allocates the head arrival at instant at and pends the
// dispatch for the next phase.
func (r *shardRunner) dispatchNext(at sim.Time) {
	s := r.s
	var sp *telemetry.EpochSpan
	if s.etrace != nil {
		sp = s.etrace.Cur()
		sp.AllocStartNs = s.etrace.NowNs()
	}
	s.view.Now = at
	j, target := s.allocate()
	r.pends = append(r.pends, dispatch{job: j, target: target, shard: s.cl.ShardOf(target), at: at})
	// Keep the in-flight list sorted by instant, stable on ties. A crash
	// requeue can dispatch before an uncommitted earlier allocation (its
	// re-arrival may precede the pending dispatch's instant), so the new
	// entry is not always the maximum.
	for i := len(r.pends) - 1; i > 0 && r.pends[i].at < r.pends[i-1].at; i-- {
		r.pends[i], r.pends[i-1] = r.pends[i-1], r.pends[i]
	}
	if sp != nil {
		sp.AllocNs = s.etrace.NowNs() - sp.AllocStartNs
	}
}

// settle runs every lane through t, committing the dispatches pended at or
// before it; every lane clock, hence the engine clock, ends at exactly t. A
// clock already past t (late submissions against an advanced clock) stays.
func (r *shardRunner) settle(t sim.Time) {
	if r.clock <= t {
		r.round(runThrough, t, false)
	}
}

func (r *shardRunner) now() sim.Time { return r.clock }

// arm is a no-op: the epoch loop reads the pending queue directly.
func (r *shardRunner) arm() {}

func (r *shardRunner) inflight() []*cluster.Job {
	jobs := make([]*cluster.Job, len(r.pends))
	for i := range r.pends {
		jobs[i] = r.pends[i].job
	}
	return jobs
}

// pendRecBytes is a lower bound on one serialized dispatch (I32 job index +
// Int target + Int shard + F64 at).
const pendRecBytes = 4 + 8 + 8 + 8

// tailState walks the engine clock and the uncommitted dispatches, by
// cluster job-table reference.
func (r *shardRunner) tailState(c *checkpoint.Codec, tab *cluster.JobTable) {
	cl := r.s.cl
	c.F64((*float64)(&r.clock))
	n := c.Count(len(r.pends), pendRecBytes)
	if c.Decoding() {
		if c.Err() == nil && (math.IsNaN(float64(r.clock)) || r.clock < 0) {
			c.Fail(ErrCorrupt, "engine clock %v", r.clock)
			return
		}
		r.pends = make([]dispatch, n)
	}
	for k := range r.pends {
		d := &r.pends[k]
		tab.Ref(c, &d.job)
		c.Int(&d.target)
		c.Int(&d.shard)
		c.F64((*float64)(&d.at))
		if !c.Decoding() {
			continue
		}
		if c.Err() != nil {
			return
		}
		if d.target < 0 || d.target >= cl.M() || d.shard != cl.ShardOf(d.target) {
			c.Fail(ErrCorrupt, "dispatch %d target %d shard %d", k, d.target, d.shard)
			return
		}
		if math.IsNaN(float64(d.at)) {
			c.Fail(ErrCorrupt, "dispatch %d time is NaN", k)
			return
		}
	}
}

// stop terminates the lane workers. Idempotent.
func (r *shardRunner) stop() {
	if r.stopped {
		return
	}
	r.stopped = true
	r.cmd = phaseCmd{stop: true}
	r.bar.release()
	r.bar.join()
}
