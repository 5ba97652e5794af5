package cluster

import (
	"fmt"
	"math"

	"hierdrl/internal/sim"
)

// The parallel tier's observation streams. Between two epoch barriers every
// shard appends its server events to private logs (single writer: the shard's
// worker); at the barrier the coordinator replays them (ReplayLogs) in merged
// global time order. Per-shard logs are time-sorted by construction (each
// lane's clock is monotone), so the merge is a k-way min pick with ties broken
// by ascending shard index — making the replayed order a pure function of
// simulated time and the fixed partition, never of goroutine scheduling. That
// is the parallel tier's reproducibility contract (DESIGN.md §12).

// ChangeRec is one aggregate-relevant server event: the server's post-event
// power draw, jobs-in-system count, and committed utilization. It carries
// everything the Merger needs to replay the strict tier's incremental global
// bookkeeping arithmetic exactly.
type ChangeRec struct {
	At     sim.Time
	Server int32
	Jobs   int32
	Power  float64
	CU     Resources
}

// DoneRec is one job completion.
type DoneRec struct {
	At sim.Time
	J  *Job
}

// TransRec is one power-mode transition.
type TransRec struct {
	At     sim.Time
	Server int32
	From   PowerState
	To     PowerState
}

// InterruptRec is one crash-evicted job awaiting its retry decision.
type InterruptRec struct {
	At sim.Time
	J  *Job
}

// DegradeRec is one fail-slow edge: Factor is the new effective speed
// multiplier (1.0 on restore to full speed).
type DegradeRec struct {
	At     sim.Time
	Server int32
	Factor float64
}

// MaintRec is one maintenance-window opening (the drain start; the eventual
// power-off and repair travel the transition/fault streams).
type MaintRec struct {
	At     sim.Time
	Server int32
}

// drainLogs is the one k-way merge behind every observation stream: it
// replays the per-shard logs that log selects through emit — pop the earliest
// head, ties to the lowest shard index, per-shard FIFO — then resets them
// (keeping capacity). That rule is the reproducibility contract
// (TestDrainOrderMerged covers each stream). The merge cursor is retained on
// the cluster and neither callback escapes, so draining allocates nothing.
func drainLogs[R any](c *Cluster, log func(*shardGroup) *[]R, at func(*R) sim.Time, emit func(*R)) {
	if cap(c.drainCur) < len(c.shards) {
		c.drainCur = make([]int, len(c.shards))
	}
	cur := c.drainCur[:len(c.shards)]
	clear(cur)
	for {
		best := -1
		var bestAt sim.Time
		for s := range c.shards {
			l := *log(&c.shards[s])
			if cur[s] >= len(l) {
				continue
			}
			if t := at(&l[cur[s]]); best < 0 || t < bestAt {
				best, bestAt = s, t
			}
		}
		if best < 0 {
			break
		}
		emit(&(*log(&c.shards[best]))[cur[best]])
		cur[best]++
	}
	for s := range c.shards {
		l := log(&c.shards[s])
		*l = (*l)[:0]
	}
}

// DrainChanges replays every logged ChangeRec in merged (time, shard) order
// through the Merger.
func (c *Cluster) DrainChanges(m *Merger) {
	drainLogs(c, func(g *shardGroup) *[]ChangeRec { return &g.changes },
		func(r *ChangeRec) sim.Time { return r.At }, m.Apply)
}

// DrainDones replays every logged completion in merged (time, shard) order.
func (c *Cluster) DrainDones(fn func(t sim.Time, j *Job)) {
	drainLogs(c, func(g *shardGroup) *[]DoneRec { return &g.dones },
		func(r *DoneRec) sim.Time { return r.At },
		func(r *DoneRec) {
			fn(r.At, r.J)
			r.J = nil // drop the reference so the log slab never pins a pooled job
		})
}

// DrainTrans replays every logged power-mode transition in merged
// (time, shard) order.
func (c *Cluster) DrainTrans(fn func(t sim.Time, server int, from, to PowerState)) {
	drainLogs(c, func(g *shardGroup) *[]TransRec { return &g.trans },
		func(r *TransRec) sim.Time { return r.At },
		func(r *TransRec) { fn(r.At, int(r.Server), r.From, r.To) })
}

// drainJobs is the shared body of the two job-carrying fault streams.
func (c *Cluster) drainJobs(log func(*shardGroup) *[]InterruptRec, fn func(t sim.Time, j *Job)) {
	drainLogs(c, log, func(r *InterruptRec) sim.Time { return r.At },
		func(r *InterruptRec) {
			fn(r.At, r.J)
			r.J = nil // drop the reference so the log slab never pins a pooled job
		})
}

// DrainInterrupts replays every logged crash eviction in merged
// (time, shard) order. The session routes each job through its RetryPolicy
// here, so requeue decisions happen at the barrier in a deterministic order.
func (c *Cluster) DrainInterrupts(fn func(t sim.Time, j *Job)) {
	c.drainJobs(func(g *shardGroup) *[]InterruptRec { return &g.interrupts }, fn)
}

// DrainMigrates replays every logged drain-time migration in merged
// (time, shard) order. Like DrainInterrupts, the session routes each job
// through its RetryPolicy here.
func (c *Cluster) DrainMigrates(fn func(t sim.Time, j *Job)) {
	c.drainJobs(func(g *shardGroup) *[]InterruptRec { return &g.migrates }, fn)
}

// DrainDegrades replays every logged fail-slow edge in merged (time, shard)
// order.
func (c *Cluster) DrainDegrades(fn func(t sim.Time, server int, factor float64)) {
	drainLogs(c, func(g *shardGroup) *[]DegradeRec { return &g.degrades },
		func(r *DegradeRec) sim.Time { return r.At },
		func(r *DegradeRec) { fn(r.At, int(r.Server), r.Factor) })
}

// DrainMaints replays every logged maintenance-window opening in merged
// (time, shard) order.
func (c *Cluster) DrainMaints(fn func(t sim.Time, server int)) {
	drainLogs(c, func(g *shardGroup) *[]MaintRec { return &g.maints },
		func(r *MaintRec) sim.Time { return r.At },
		func(r *MaintRec) { fn(r.At, int(r.Server)) })
}

// ReplayLogs drains every stream that async mode logs into the callbacks the
// strict tier fires synchronously, so an observer is wired once for both
// tiers. All shards are quiescent at the barrier, so user callbacks may take
// a snapshot. The gates are the ones the logging side applies: a stream is
// drained exactly when it can hold records.
func (c *Cluster) ReplayLogs(m *Merger) {
	if c.logChanges {
		c.DrainChanges(m)
	}
	c.DrainDones(c.OnJobDone)
	if c.logTransitions {
		c.DrainTrans(c.OnTransition)
	}
	if !c.faults {
		return
	}
	// Maintenance openings replay before the migration stream so an observer
	// hears OnDrainStart before the window's migrated jobs.
	c.DrainMaints(c.OnDrainStart)
	c.DrainDegrades(c.OnDegrade)
	// Crash evictions replay after completions: a job completed at the same
	// instant its server died was already running, so its completion wins the
	// tie and the eviction stream only carries genuinely interrupted work.
	c.DrainInterrupts(c.OnInterrupt)
	c.DrainMigrates(c.OnMigrate)
}

// resetLogs empties every observation log, keeping capacity.
func (g *shardGroup) resetLogs() {
	g.changes = g.changes[:0]
	g.dones = g.dones[:0]
	g.trans = g.trans[:0]
	g.interrupts = g.interrupts[:0]
	g.migrates = g.migrates[:0]
	g.degrades = g.degrades[:0]
	g.maints = g.maints[:0]
}

// PendingLogs reports whether any shard has undrained log entries (test and
// invariant surface).
func (c *Cluster) PendingLogs() bool {
	for s := range c.shards {
		g := &c.shards[s]
		if len(g.changes) > 0 || len(g.dones) > 0 || len(g.trans) > 0 || len(g.interrupts) > 0 ||
			len(g.migrates) > 0 || len(g.degrades) > 0 || len(g.maints) > 0 {
			return true
		}
	}
	return false
}

// Merger replays the parallel tier's merged change feed through the strict
// tier's exact global bookkeeping: one incremental power accumulator, one
// jobs-in-system counter, one global reliability term cache with the
// ascending sparse summation, one jobs multiset. Because per-server state
// evolution is shard-local (bitwise identical to strict) and the merged
// record order equals the strict event order whenever no two shards fire at
// the same instant, the (power, jobs, reliability) stream a DRL agent
// observes through a Merger is bitwise identical to the strict tier's —
// which is what keeps sharded learning runs equal to strict ones (DESIGN.md
// §12 documents the simultaneity caveat).
type Merger struct {
	theta        float64
	totalPower   float64
	jobsInSystem int
	prevPower    []float64
	prevJobs     []int
	reliTerms    []float64
	reliHot      []uint64
	jobs         jobsMultiset

	// OnChange receives the replayed feed: the post-event global aggregates
	// at the event's instant, in merged time order.
	OnChange func(t sim.Time, powerW float64, jobsInSystem int, reli float64)
}

// NewMerger builds a Merger whose initial state replicates the cluster's
// construction-time aggregates (the same ascending initial power summation
// the strict constructor performs).
func NewMerger(c *Cluster) *Merger {
	m := &Merger{
		theta:     c.cfg.HotSpotThreshold,
		prevPower: make([]float64, c.cfg.M),
		prevJobs:  make([]int, c.cfg.M),
		reliTerms: make([]float64, c.cfg.M*NumResources),
		reliHot:   make([]uint64, (c.cfg.M+63)/64),
	}
	m.jobs.init(c.cfg.M)
	for i, s := range c.servers {
		m.prevPower[i] = s.Power()
		m.totalPower += s.Power()
	}
	return m
}

// Apply replays one change record through the strict global bookkeeping and
// fires OnChange.
func (m *Merger) Apply(rec *ChangeRec) {
	i := int(rec.Server)
	jobs := int(rec.Jobs)
	m.totalPower += rec.Power - m.prevPower[i]
	m.jobsInSystem += jobs - m.prevJobs[i]
	if old := m.prevJobs[i]; old != jobs {
		m.jobs.move(old, jobs)
	}
	m.prevPower[i] = rec.Power
	m.prevJobs[i] = jobs
	updateReliTerms(m.reliTerms, m.reliHot, i, rec.CU, m.theta)
	if m.OnChange != nil {
		m.OnChange(rec.At, m.totalPower, m.jobsInSystem, m.Reliability())
	}
}

// TotalPower returns the replayed global power accumulator.
func (m *Merger) TotalPower() float64 { return m.totalPower }

// JobsInSystem returns the replayed global jobs-in-system counter.
func (m *Merger) JobsInSystem() int { return m.jobsInSystem }

// Reliability returns the replayed reliability objective: the strict tier's
// ascending sparse sum over the global term cache plus the max-jobs term.
func (m *Merger) Reliability() float64 {
	return sparseReliSum(m.reliTerms, m.reliHot) + float64(m.jobs.max)
}

// InvariantCheck compares the replayed aggregates against the cluster's
// per-shard incremental ones. Power and reliability are FP sums in different
// association orders, so they match to tolerance, not bitwise; the integer
// counters must be exact. Valid only at a barrier with all logs drained.
func (m *Merger) InvariantCheck(c *Cluster) {
	if c.PendingLogs() {
		panic("cluster: Merger.InvariantCheck with undrained logs")
	}
	if got, want := m.jobsInSystem, c.JobsInSystem(); got != want {
		panic(fmt.Sprintf("cluster: merger jobs drift: replayed %d incremental %d", got, want))
	}
	if got, want := m.totalPower, c.TotalPower(); !closeRel(got, want, 1e-9) {
		panic(fmt.Sprintf("cluster: merger power drift: replayed %v incremental %v", got, want))
	}
	if got, want := m.Reliability(), c.ReliabilityObj(); !closeRel(got, want, 1e-9) {
		panic(fmt.Sprintf("cluster: merger reliability drift: replayed %v incremental %v", got, want))
	}
}

func closeRel(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
}
