package hierdrl

import (
	"context"
	"errors"
	"fmt"
	"math"

	"hierdrl/internal/cluster"
	"hierdrl/internal/fault"
	"hierdrl/internal/global"
	"hierdrl/internal/mat"
	"hierdrl/internal/metrics"
	"hierdrl/internal/policy"
	"hierdrl/internal/sim"
	"hierdrl/internal/telemetry"
)

// ErrSessionClosed is returned after Close by every Session method that
// ingests, advances the clock, or finalizes (Submit, SubmitTrace, Step,
// StepUntil, Drain, Result). Read-only accessors (Snapshot, Now, Pending,
// Ingested, Completed) keep reporting the final state.
var ErrSessionClosed = errors.New("hierdrl: session closed")

// infTime is the horizon of an unbounded advance; every schedulable instant
// is finite (sim.Schedule rejects NaN and nothing schedules at +Inf).
const infTime = sim.Time(math.MaxFloat64)

// Observer bundles the session's lifecycle callbacks. It is a struct of
// function fields rather than an interface so unset hooks cost exactly one
// nil check on the hot path (no interface dispatch, no boxing) and callers
// implement only what they need.
//
// All callbacks run synchronously on the simulation path; they must not call
// back into the Session.
type Observer struct {
	// OnJobDone fires at each job completion, before the job object is
	// recycled into the session's pool — read what you need, do not retain j.
	OnJobDone func(t Time, j *ClusterJob)
	// OnCheckpoint fires when a Fig. 8/9 series point is recorded (requires
	// Config.CheckpointEvery > 0).
	OnCheckpoint func(cp Checkpoint)
	// OnModeTransition fires at every server power-mode change.
	OnModeTransition func(t Time, server int, from, to PowerState)
	// OnServerFail fires when a server crashes (fault injection), before its
	// jobs are evicted: the OnJobRetry calls for them follow it.
	OnServerFail func(t Time, server int)
	// OnServerRepair fires when a crashed server rejoins (cold).
	OnServerRepair func(t Time, server int)
	// OnJobRetry fires when the retry policy requeues an interrupted job:
	// attempt counts the job's interruptions so far (from 1), delaySec is
	// the backoff before it becomes eligible again. Dropped jobs fire no
	// callback; they surface as JobsLost in snapshots and the summary.
	OnJobRetry func(t Time, jobID, attempt int, delaySec float64)
	// OnServerDegrade fires on each fail-slow edge: factor is the server's
	// new effective speed multiplier (< 1 entering degradation, 1.0 on
	// restore to full speed).
	OnServerDegrade func(t Time, server int, factor float64)
	// OnDrainStart fires when a maintenance window opens on a server, before
	// its queue migrates: the OnJobRetry calls for the migrated jobs follow
	// it. The server accepts no new work while its running jobs finish. The
	// eventual power-off and rejoin surface as OnServerFail/OnServerRepair
	// like any other outage.
	OnDrainStart func(t Time, server int)
}

// sessionOptions collects NewSession's functional options.
type sessionOptions struct {
	obs        Observer
	ctx        context.Context
	autoPath   string
	autoEvery  int
	telAddr    string // WithTelemetry: HTTP observability endpoint address
	etraceCap  int    // WithEpochTrace: ring capacity (0 = off)
	etracePath string // WithEpochTraceFile: Chrome-trace dump at Close

	// trainInline keeps the DRL agent's training steps on the lane's
	// goroutine, for a Study running enough sessions at once to keep every
	// core busy (inlineTraining).
	trainInline bool
}

// inlineTraining is the session setting of a Study whose runs occupy every
// core: a train-step helper there would only take a core from another run.
func inlineTraining(o *sessionOptions) { o.trainInline = true }

// SessionOption configures NewSession.
type SessionOption func(*sessionOptions)

// WithObserver attaches lifecycle callbacks to the session.
func WithObserver(obs Observer) SessionOption {
	return func(o *sessionOptions) { o.obs = obs }
}

// WithContext attaches a cancellation context: Step, StepUntil and Drain
// return ctx.Err() once ctx is done (checked before every event or decision
// epoch) and latch it, so every later advance returns it too. With
// WithAutoCheckpoint also set, the first advance that sees ctx done first
// writes one final snapshot generation at that event boundary; if the write
// fails, the returned error wraps both ctx.Err() and the write error. The
// default context never cancels and costs nothing per event.
func WithContext(ctx context.Context) SessionOption {
	return func(o *sessionOptions) {
		if ctx != nil {
			o.ctx = ctx
		}
	}
}

// WithShards once selected a parallel execution tier that stepped p server
// groups on p goroutines between arrival decision epochs. It never beat the
// single lane (DESIGN.md §12), and the tier is gone: every session now runs
// the one event lane, whatever p is.
//
// Deprecated: WithShards is a no-op for every p. It remains only so existing
// callers compile, and will be removed.
func WithShards(p int) SessionOption {
	return func(*sessionOptions) {}
}

// Session is the long-lived, streaming form of one experiment run: the same
// engine Run drives end to end, with ingestion, clock control, and
// observation split apart. Jobs enter through Submit / SubmitTrace, the
// simulated clock advances only through Step / StepUntil / Drain, and state
// is visible mid-run through Snapshot and the Observer hooks.
//
// A Session is not safe for concurrent use; drive it from one goroutine.
//
// Lifecycle: NewSession (validates the config, builds the cluster, and — for
// DRL configurations with a WarmupTrace — performs the Algorithm 1 offline
// phase), then any interleaving of Submit/SubmitTrace and Step/StepUntil/
// Drain, then Result for the final measurements, then Close. The batch
// helpers (Run, RunSource, and Study.Run over them) are thin wrappers over
// exactly this sequence, and replaying a trace through a Session is bitwise
// identical to Run on the same Config.
type Session struct {
	cfg   Config
	agent *global.Agent
	cl    *cluster.Cluster
	alloc Allocator
	col   *metrics.Collector
	obs   Observer

	ctx  context.Context
	done <-chan struct{}

	// sm is the one event lane, stepped on the caller's goroutine. The
	// paper's control loop has one synchronisation point, the global tier's
	// decision epoch at each arrival; arrivals enter the lane through pump,
	// the one pending-arrival timer (armed while arrivals are pending), whose
	// firing is that epoch.
	sm   *sim.Simulator
	pump sim.Timer

	// Ingestion: pending arrivals ordered by (arrival, submission order).
	pq       pendingQueue
	ingested int64

	// pool recycles completed cluster jobs (steady-state arrivals allocate
	// nothing); view is the reused allocator snapshot.
	pool []*cluster.Job
	view cluster.View

	// Allocator strategy, classified once at construction: fastLL answers
	// least-loaded from the cluster's incremental load index (no O(M)
	// snapshot scan per arrival), needsView is false for allocators that never
	// read server state (least-loaded, round-robin, random) so the engine
	// skips the view refresh. Both produce bitwise the decisions of the plain
	// snapshot path.
	fastLL    bool
	needsView bool

	// etrace records one timing span per decision epoch (nil unless
	// WithEpochTrace, leaving one never-taken nil check per decision).
	etrace *telemetry.EpochRing

	// auto is the periodic snapshot-to-disk layer (nil unless configured
	// with WithAutoCheckpoint, leaving one never-taken nil check per epoch).
	auto *autoCheckpoint

	// tel is the live-telemetry layer (nil unless configured with
	// WithTelemetry or WithEpochTraceFile; same one-nil-check discipline).
	tel *sessionTelemetry

	// Fault layer (all zero when Config.Faults is FaultNone, leaving
	// every fault branch below a never-taken check).
	faults bool
	rp     fault.Retry
	retry  map[int]retryInfo // job ID -> attempts + original arrival
	// Retry accounting: interrupted counts crash evictions, migrated the
	// drain-time migrations, retried the requeues, lost the drops; lostWork
	// integrates executed-then-discarded seconds. Pushed into the collector
	// at Result time.
	interrupted int64
	migrated    int64
	retried     int64
	lost        int64
	lostWork    float64

	// err latches the first terminal error (context cancellation or guard
	// trip): all further clock advances return it and Result reports a
	// partial run instead of misleading metrics.
	err error

	// joiners are the power managers whose learners train off the lane
	// (lstm.Predictor); Close joins each, so no training round outlives it.
	joiners []interface{ Join() }

	finished bool
	closed   bool
}

// retryInfo tracks one in-retry job across interruptions: how often it has
// been evicted and its original declared arrival (latency keeps counting
// from the first arrival, not the requeue instant).
type retryInfo struct {
	attempts int
	orig     float64
}

// NewSession validates cfg and builds a ready-but-empty session. For DRL
// configurations with a WarmupTrace it first runs the offline phase of
// Algorithm 1 (high-epsilon rollout, autoencoder pretraining, fitted-Q
// sweeps), so construction can take meaningful time; pass a smaller (or nil)
// WarmupTrace for interactive use.
func NewSession(cfg Config, opts ...SessionOption) (*Session, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	o := sessionOptions{ctx: context.Background()}
	for _, opt := range opts {
		opt(&o)
	}

	// The RNG chain reproduces Run's historical draw order exactly:
	// agent, then warmup pass, then measured pass.
	rng := mat.NewRNG(cfg.Seed)
	var agent *global.Agent
	if cfg.Alloc == AllocDRL {
		var err error
		agent, err = global.NewAgent(cfg.Global, cfg.M, rng.Split())
		if err != nil {
			return nil, fmt.Errorf("hierdrl: global agent: %w", err)
		}
		if o.trainInline {
			agent.TrainInline()
		}
		if cfg.WarmupTrace != nil && cfg.WarmupTrace.Len() > 0 {
			if err := warmup(cfg, agent, rng.Split()); err != nil {
				return nil, err
			}
		}
	}
	return newPass(cfg, agent, rng.Split(), cfg.CheckpointEvery, o)
}

// newPass builds the per-pass state: simulator, cluster (one power manager
// per server through the registry), allocator, and collector. Both the
// measured session and the warmup rollout are passes; the agent (if any)
// persists across them so learning accumulates.
func newPass(cfg Config, agent *global.Agent, rng *mat.RNG, checkpointEvery int, o sessionOptions) (*Session, error) {
	sm := sim.New()
	// The factory callback cannot return an error through cluster.New, and
	// registered factories may legitimately fail (external policies validate
	// inside their factory): capture the first failure and surface it. The
	// nil policy makes cluster.New abort on that server, so no partially
	// built cluster escapes.
	var pmErr error
	var joiners []interface{ Join() }
	cl, err := cluster.New(cfg.Cluster, sm, func(id int) cluster.DPMPolicy {
		pm, e := buildPowerManager(&cfg, id, rng)
		if e != nil {
			if pmErr == nil {
				pmErr = e
			}
			return nil
		}
		if j, ok := pm.(interface{ Join() }); ok {
			joiners = append(joiners, j)
		}
		return pm
	})
	if pmErr != nil {
		return nil, fmt.Errorf("hierdrl: power manager: %w", pmErr)
	}
	if err != nil {
		return nil, fmt.Errorf("hierdrl: cluster: %w", err)
	}
	alloc, err := buildAllocator(&cfg, agent, rng)
	if err != nil {
		return nil, err
	}
	fl, err := buildFaultLayer(&cfg)
	if err != nil {
		return nil, fmt.Errorf("hierdrl: %w", err)
	}

	s := &Session{
		cfg:     cfg,
		agent:   agent,
		cl:      cl,
		alloc:   alloc,
		col:     metrics.NewCollector(cl, checkpointEvery),
		obs:     o.obs,
		ctx:     o.ctx,
		sm:      sm,
		joiners: joiners,
	}
	if o.ctx != nil {
		s.done = o.ctx.Done()
	}
	// Classify the allocator's state needs once: least-loaded runs off the
	// cluster's incremental load index (enabled here so it is
	// maintained from the first event), round-robin and random read only the
	// prepared view's M, everything else gets a refreshed snapshot per arrival.
	cl.SnapshotPrepare(&s.view)
	switch alloc.(type) {
	case *policy.LeastLoaded:
		s.fastLL = true
		cl.EnableLoadIndex()
	case *policy.RoundRobin, *policy.Random:
	default:
		s.needsView = true
	}

	if fl.clockFor != nil {
		s.faults, s.rp = true, fl.retry
		s.retry = make(map[int]retryInfo)
		cl.EnableFaults(fl.clockFor, fl.kind, fl.factor, fl.domains)
	}
	// Fail/repair edges ride the ordinary transition stream; route it when
	// anyone listens (mode observer, or fault observers with faults on).
	needTrans := o.obs.OnModeTransition != nil ||
		(s.faults && (o.obs.OnServerFail != nil || o.obs.OnServerRepair != nil))

	// Observers fire synchronously on the lane, as the events happen.
	s.col.OnCheckpoint = o.obs.OnCheckpoint
	cl.OnJobDone = s.jobDone
	if needTrans {
		cl.OnTransition = s.routeTransition
	}
	if s.faults {
		cl.OnInterrupt = s.jobInterrupted
		cl.OnMigrate = s.jobMigrated
		cl.OnDegrade = o.obs.OnServerDegrade
		cl.OnDrainStart = o.obs.OnDrainStart
	}
	if agent != nil {
		cl.OnChange = func(t sim.Time) {
			agent.ObserveCluster(t, cl.TotalPower(), cl.JobsInSystem(), cl.ReliabilityObj())
		}
	}
	if o.etraceCap > 0 {
		s.etrace = telemetry.NewEpochRing(o.etraceCap)
	}
	if o.autoPath != "" {
		every := int64(o.autoEvery)
		if every < 1 {
			every = 1
		}
		s.auto = &autoCheckpoint{path: o.autoPath, every: every, keep: autoKeep}
	}
	if o.telAddr != "" || o.etracePath != "" {
		t := &sessionTelemetry{every: telemetryPublishEvery, etracePath: o.etracePath}
		if o.telAddr != "" {
			srv, serr := telemetry.NewServer(o.telAddr)
			if serr != nil {
				s.Close()
				return nil, fmt.Errorf("hierdrl: %w", serr)
			}
			t.srv = srv
		}
		s.tel = t
		if t.srv != nil {
			t.publish(s) // initial blobs: /metrics and /snapshot answer before the first epoch
		}
	}
	return s, nil
}

// jobDone is the cluster's completion callback: record metrics, notify the
// observer, recycle the job. Every branch is nil-checked so a session with
// no observer completes jobs allocation-free.
func (s *Session) jobDone(t sim.Time, j *cluster.Job) {
	s.col.JobDone(t, j)
	if s.obs.OnJobDone != nil {
		s.obs.OnJobDone(t, j)
	}
	if s.faults {
		delete(s.retry, j.ID)
	}
	s.pool = append(s.pool, j)
}

// routeTransition fans one power-mode change out to the attached observers,
// classifying the fault edges: a transition into StateDown is a crash, one
// out of it a repair.
func (s *Session) routeTransition(t sim.Time, server int, from, to cluster.PowerState) {
	if s.obs.OnModeTransition != nil {
		s.obs.OnModeTransition(t, server, from, to)
	}
	if to == cluster.StateDown {
		if s.obs.OnServerFail != nil {
			s.obs.OnServerFail(t, server)
		}
	} else if from == cluster.StateDown {
		if s.obs.OnServerRepair != nil {
			s.obs.OnServerRepair(t, server)
		}
	}
}

// jobInterrupted is the cluster's crash-eviction callback, invoked during the
// crash event. The work the job had executed is lost; the job itself goes
// through the retry policy.
func (s *Session) jobInterrupted(t sim.Time, j *cluster.Job) {
	s.interrupted++
	if started, ok := j.StartedAt(); ok {
		s.lostWork += float64(t - started)
	}
	s.retryEvicted(t, j)
}

// jobMigrated is the cluster's drain-migration callback: a queued job handed
// back when its server opened a maintenance window. It takes the same retry
// path but counts as a graceful migration, not an interruption — the job
// never started on the draining server, so no executed work is lost.
func (s *Session) jobMigrated(t sim.Time, j *cluster.Job) {
	s.migrated++
	s.retryEvicted(t, j)
}

// retryEvicted routes a job a server handed back (crash eviction or drain
// migration) through the retry policy: a requeued job re-enters the pending
// queue at now+delay under its original ID (latency keeps counting from the
// first declared arrival), a dropped job counts as lost.
func (s *Session) retryEvicted(t sim.Time, j *cluster.Job) {
	ri, ok := s.retry[j.ID]
	if !ok {
		ri.orig = float64(j.Arrival)
	}
	ri.attempts++
	delay, retryJob := s.rp.Delay(ri.attempts)
	tj := Job{ID: j.ID, Arrival: float64(t) + delay, Duration: j.Duration, Req: j.Req.ToTraceReq()}
	s.pool = append(s.pool, j)
	if !retryJob {
		s.lost++
		delete(s.retry, j.ID)
		return
	}
	s.retry[j.ID] = ri
	s.retried++
	// Re-insert behind the same (arrival, order) total order Submit maintains,
	// without assigning a new ID or counting the job as ingested again.
	s.enqueue(tj)
	if s.obs.OnJobRetry != nil {
		s.obs.OnJobRetry(t, j.ID, ri.attempts, delay)
	}
}

// enqueue adds one job to the pending queue behind every queued job that
// arrives no later (see pendingQueue.enqueue for the cost) and lets the
// pump re-arm.
func (s *Session) enqueue(tj Job) {
	s.pq.enqueue(tj)
	s.arm()
}

// drained reports whether every ingested job is accounted for — completed or
// dropped — with no arrival pending. With failure clocks armed the event
// queues are never empty (every server always holds a crash or repair
// timer), so fault-aware Drain stops on this accounting condition rather
// than on queue exhaustion.
func (s *Session) drained() bool {
	return s.pq.pending() == 0 && s.cl.Completed()+s.lost == s.ingested
}

// fail latches the first terminal error; once set, every clock-advancing
// call returns it unchanged.
func (s *Session) fail(err error) error {
	if err != nil && s.err == nil {
		s.err = err
	}
	return err
}

// Reserve pre-sizes the pending queue for n further jobs, making a bounded
// stream allocation-free once the pools are warm. The metrics collector needs
// no sizing: its latency record is a fixed-size histogram set.
func (s *Session) Reserve(n int) {
	s.pq.reserve(n)
}

// Submit ingests one job. The job's ID is assigned by the session (ingestion
// order); Arrival is an absolute simulated instant — an arrival in the past
// is dispatched immediately at the current clock (its latency still counts
// from the declared arrival). Jobs may be submitted in any order and at any
// point between clock advances.
func (s *Session) Submit(j Job) error {
	if s.closed {
		return ErrSessionClosed
	}
	j.ID = int(s.ingested)
	if err := j.Validate(); err != nil {
		return fmt.Errorf("hierdrl: submit: %w", err)
	}
	s.ingested++
	s.enqueue(j)
	return nil
}

// SubmitTrace ingests every job of tr (IDs are reassigned to ingestion
// order). It is equivalent to submitting the jobs one by one, but merges an
// out-of-order batch with one stable sort instead of an insert per job.
func (s *Session) SubmitTrace(tr *Trace) error {
	if s.closed {
		return ErrSessionClosed
	}
	if tr == nil || len(tr.Jobs) == 0 {
		return nil
	}
	// Validate the whole batch before mutating anything: a malformed trace
	// must leave the session untouched, not half-ingested with the pending
	// queue's ordering invariant broken and no pump armed.
	for i, tj := range tr.Jobs {
		tj.ID = int(s.ingested) + i
		if err := tj.Validate(); err != nil {
			return fmt.Errorf("hierdrl: submit: %w", err)
		}
	}
	s.Reserve(len(tr.Jobs))
	s.pq.enqueueAll(tr.Jobs, int(s.ingested))
	s.ingested += int64(len(tr.Jobs))
	s.arm()
	return nil
}

// pumpFire is the pump's event trampoline (package-level: no closure, no
// per-event allocation).
func pumpFire(a any) { a.(*Session).fire() }

// arm keeps exactly one pending-arrival timer scheduled, in the simulator's
// priority lane so a streamed arrival takes the same queue position an
// up-front-scheduled arrival historically had (arrivals win timestamp ties
// against simulation-spawned events). Call it whenever the pending queue's
// head may have changed.
func (s *Session) arm() {
	if s.pq.pending() == 0 {
		return
	}
	at := sim.Time(s.pq.head().Arrival)
	if now := s.sm.Now(); at < now {
		// A late submission is dispatched at the current clock (its latency
		// still counts from the declared arrival).
		at = now
	}
	if s.pump.Pending() {
		if s.pump.At() <= at {
			return // already armed at or before the head arrival
		}
		s.pump.Cancel()
	}
	s.pump = s.sm.SchedulePriorityArg(at, pumpFire, s)
}

// fire is the decision epoch: refresh the view if the allocator reads it,
// allocate the head arrival, submit it, and re-arm for the next pending
// arrival. With WithEpochTrace it records one span per decision.
func (s *Session) fire() {
	s.pump = sim.Timer{}
	if s.faults && s.cl.UnavailableServers() == s.cl.M() {
		// Every server is down or draining: park the pump at the earliest
		// instant one can change state — a repair, or a draining server
		// running dry (its power-off then schedules the real repair). The
		// triggering event sits in the same (normal) lane with an earlier
		// sequence number, so at that instant it fires before the pump does
		// and the retried dispatch sees the updated availability; each
		// re-park is therefore strictly later and the pump cannot spin.
		at := s.cl.NextAvailAt()
		if now := s.sm.Now(); at < now {
			at = now
		}
		s.pump = s.sm.ScheduleArg(at, pumpFire, s)
		return
	}
	if s.etrace != nil {
		s.fireTraced()
		return
	}
	if s.needsView {
		s.cl.SnapshotInto(&s.view)
	}
	j, target := s.allocate()
	s.cl.Submit(j, target)
	s.arm()
}

// fireTraced is fire's decision epoch with each segment timed into the epoch
// ring under the names the Chrome dump shows: run (the lane's events since
// the previous decision ended), refresh+encode, alloc+gemm and commit.
func (s *Session) fireTraced() {
	r := s.etrace
	sp := r.Begin(float64(s.sm.Now()))
	if s.needsView {
		s.cl.SnapshotInto(&s.view)
	}
	r.Lap(&sp.RefreshNs)
	j, target := s.allocate()
	r.Lap(&sp.AllocNs)
	s.cl.Submit(j, target)
	r.Lap(&sp.CommitNs)
	s.arm()
}

// allocate pops the head arrival and picks its target server. fire has
// made s.view current for allocators that read it (needsView) and commits
// the returned job itself.
func (s *Session) allocate() (j *cluster.Job, target int) {
	j = s.takeJob(s.pq.pop())
	switch {
	case s.fastLL:
		// Least-loaded answers from the incrementally maintained load index:
		// bit for bit the argmin of the O(M) snapshot scan it replaces
		// (essential at 10k-server scale, where a per-arrival scan would
		// dominate the whole run).
		target = s.cl.LeastCommitted()
	default:
		target = s.alloc.Allocate(j, &s.view)
	}
	if s.faults && !s.cl.Accepting(target) {
		// Graceful degradation for state-blind allocators (round-robin,
		// random, a stale DRL pick): cyclically remap onto a server that
		// accepts work (neither down nor draining). The lane stalls an
		// arrival while every server is unavailable, so one always exists.
		target = s.cl.NextUp(target)
	}
	return j, target
}

// takeJob renews a pooled cluster job (or allocates one) for dispatch. A
// retried job's declared arrival is restored to its original instant, so its
// latency accumulates across interruptions from the first arrival.
func (s *Session) takeJob(tj Job) *cluster.Job {
	var j *cluster.Job
	if n := len(s.pool); n > 0 {
		j = s.pool[n-1]
		s.pool = s.pool[:n-1]
		j.Renew(tj)
	} else {
		j = cluster.NewJob(tj)
	}
	if s.faults {
		if ri, ok := s.retry[j.ID]; ok {
			j.Arrival = sim.Time(ri.orig)
		}
	}
	return j
}

// ctxErr reports the session context's cancellation state without blocking.
func (s *Session) ctxErr() error {
	if s.done == nil {
		return nil
	}
	select {
	case <-s.done:
		return s.ctx.Err()
	default:
		return nil
	}
}

// eventsFired counts the events the lane has fired.
func (s *Session) eventsFired() int64 { return s.sm.Fired() }

// guard bounds total event count relative to ingested jobs, protecting
// callers from a runaway self-rescheduling model. Every job spawns a bounded
// number of follow-up events; 64 per job is a generous ceiling.
func (s *Session) guard() error {
	budget := 64*s.ingested + 1024
	if s.faults {
		// Fault runs self-fund their extra events: every requeue re-dispatches
		// one job, and every crash schedules one crash + one repair event.
		budget += 64*s.retried + 16*s.cl.Failures()
	}
	if fired := s.eventsFired(); fired > budget {
		return fmt.Errorf("hierdrl: event budget exceeded (%d events for %d jobs): runaway model",
			fired, s.ingested)
	}
	return nil
}

// usable reports why the clock cannot advance: the session is closed, or an
// earlier advance latched a terminal error.
func (s *Session) usable() error {
	if s.closed {
		return ErrSessionClosed
	}
	return s.err
}

// tick is the epoch-boundary hook, reached after every event:
// the periodic snapshot-to-disk and the telemetry publish. An auto-checkpoint
// failure surfaces without latching: the run itself is consistent and the
// next boundary retries the write.
func (s *Session) tick() error {
	if s.tel != nil {
		s.telTick()
	}
	if s.auto != nil {
		return s.autoTick()
	}
	return nil
}

// unit is the one clock-advance path behind Step, StepUntil and Drain: the
// cancellation and runaway checks (which latch), one event no later than
// until (infTime means unbounded), and the tick. It reports whether an event
// fired.
func (s *Session) unit(until sim.Time) (bool, error) {
	if err := s.ctxErr(); err != nil {
		if s.auto != nil {
			// The last event boundary before the latch: write the final
			// generation here, so the cancelled run resumes from this instant.
			if werr := s.writeAutoCheckpoint(); werr != nil {
				err = fmt.Errorf("hierdrl: %w; final auto-checkpoint: %w", err, werr)
			}
		}
		return false, s.fail(err)
	}
	if err := s.guard(); err != nil {
		return false, s.fail(err)
	}
	if until == infTime && s.faults && s.drained() {
		// Fault runs never run out of events (crash/repair timers are
		// perpetual): an unbounded advance is idle once the job accounting
		// closes instead.
		return false, nil
	}
	if next, ok := s.sm.PeekTime(); !ok || next > until || !s.sm.Step() {
		return false, nil
	}
	return true, s.tick()
}

// Step fires one event and reports whether anything fired (false means the
// engine is idle — drained or awaiting submissions).
func (s *Session) Step() (bool, error) {
	if err := s.usable(); err != nil {
		return false, err
	}
	return s.unit(infTime)
}

// StepUntil fires every event scheduled at or before t and advances the
// clock to exactly t (it never runs past t, so a later Submit with an
// arrival after t is dispatched at its declared instant). A NaN or infinite t
// is rejected before anything fires: no event compares after NaN, and a fault
// run's perpetual crash/repair timers never pass +Inf.
func (s *Session) StepUntil(t Time) error {
	if err := s.usable(); err != nil {
		return err
	}
	if math.IsNaN(float64(t)) || math.IsInf(float64(t), 0) {
		return fmt.Errorf("hierdrl: StepUntil: non-finite instant %v", float64(t))
	}
	for {
		more, err := s.unit(t)
		if err != nil {
			return err
		}
		if !more {
			break
		}
	}
	// Nothing is left at or before t: Run only moves the clock there.
	s.sm.Run(t)
	return s.tick()
}

// Drain fires events until the engine is idle: every submitted job has been
// dispatched and completed. Further jobs can still be submitted afterwards.
func (s *Session) Drain() error {
	if err := s.usable(); err != nil {
		return err
	}
	for {
		more, err := s.unit(infTime)
		if err != nil || !more {
			return err
		}
	}
}

// Now returns the current simulated time.
func (s *Session) Now() Time { return s.sm.Now() }

// Pending returns the number of ingested jobs not yet dispatched.
func (s *Session) Pending() int { return s.pq.pending() }

// Ingested returns the number of jobs accepted so far.
func (s *Session) Ingested() int64 { return s.ingested }

// Completed returns the number of jobs finished so far.
func (s *Session) Completed() int64 { return s.cl.Completed() }

// SessionSnapshot is a live mid-run view of the cluster and the accumulated
// metrics — the streaming counterpart of Result.
type SessionSnapshot struct {
	// Now is the simulated clock.
	Now Time
	// Ingested/Completed count jobs accepted and finished; PendingArrivals
	// counts ingested jobs not yet dispatched; JobsInSystem counts jobs
	// queued or running on servers.
	Ingested        int64
	Completed       int64
	PendingArrivals int
	JobsInSystem    int
	// TotalPowerW is the instantaneous cluster draw; EnergykWh the energy
	// integrated so far.
	TotalPowerW float64
	EnergykWh   float64
	// AccLatencySec/AvgLatencySec summarize completed-job latency so far.
	AccLatencySec float64
	AvgLatencySec float64
	// Robustness state (fault injection; ServersDown 0 and Availability 1 on
	// fault-free runs). Availability is 1 - downtime/(M * elapsed); Failures
	// counts crashes; JobsRetried/JobsLost count retry-policy outcomes;
	// LostWorkSec integrates executed-then-discarded work.
	ServersDown  int
	Failures     int64
	JobsRetried  int64
	JobsLost     int64
	LostWorkSec  float64
	Availability float64
	// Extended fault classes: ServersUnavailable additionally counts
	// draining servers; JobsMigrated counts drain-time migrations;
	// DomainOutages counts whole-failure-domain down episodes; DegradedSec
	// integrates fail-slow server-seconds.
	ServersUnavailable int
	JobsMigrated       int64
	DomainOutages      int64
	DegradedSec        float64
	// View is a freshly captured per-server snapshot (owned by the caller).
	View *ClusterView
}

// Snapshot captures a live view of the session into a fresh ClusterView.
// Monitoring loops that snapshot repeatedly should use SnapshotInto, which
// reuses the buffers.
func (s *Session) Snapshot() SessionSnapshot {
	var snap SessionSnapshot
	s.SnapshotInto(&snap)
	return snap
}

// SnapshotInto refreshes dst with a live view of the session, reusing
// dst.View's buffers (allocated on first use): a warm refresh performs no
// heap allocation. It is safe wherever Snapshot is — between clock advances
// and inside Observer callbacks.
func (s *Session) SnapshotInto(dst *SessionSnapshot) {
	if dst.View == nil {
		dst.View = &ClusterView{}
	}
	now := s.Now()
	s.cl.SnapshotInto(dst.View)
	dst.View.Now = now
	dst.Now = now
	dst.Ingested = s.ingested
	dst.Completed = s.cl.Completed()
	dst.PendingArrivals = s.Pending()
	dst.JobsInSystem = s.cl.JobsInSystem()
	dst.TotalPowerW = s.cl.TotalPower()
	dst.EnergykWh = s.cl.TotalEnergyJoules(now) / JoulesPerKWh
	dst.AccLatencySec = s.col.AccLatency()
	dst.AvgLatencySec = 0
	if n := s.col.Completed(); n > 0 {
		dst.AvgLatencySec = dst.AccLatencySec / float64(n)
	}
	dst.ServersDown = s.cl.DownServers()
	dst.Failures = s.cl.Failures()
	dst.JobsRetried = s.retried
	dst.JobsLost = s.lost
	dst.LostWorkSec = s.lostWork
	dst.ServersUnavailable = s.cl.UnavailableServers()
	dst.JobsMigrated = s.migrated
	dst.DomainOutages = s.cl.DomainOutages()
	dst.DegradedSec = s.cl.DegradedSeconds(now)
	dst.Availability = 1
	if now > 0 {
		dst.Availability = 1 - s.cl.DownSeconds(now)/(float64(s.cl.M())*now.Seconds())
	}
}

// Result finalizes the run and returns the measurements: the Table I summary
// at the current clock, the checkpoint series, and the transition counts.
// Call it after Drain — an incomplete run (jobs still pending or in flight)
// is an error and leaves the session resumable. The first successful call
// closes the learning episode; later calls re-summarize at the later clock.
func (s *Session) Result() (*Result, error) {
	if s.closed {
		return nil, ErrSessionClosed
	}
	if s.err != nil {
		return nil, fmt.Errorf("hierdrl: partial run (%d of %d jobs completed at t=%v): %w",
			s.cl.Completed(), s.ingested, s.Now(), s.err)
	}
	if got := s.cl.Completed(); got+s.lost != s.ingested {
		return nil, fmt.Errorf("hierdrl: %d of %d jobs completed", got, s.ingested)
	}
	s.finishEpisode()
	s.cl.InvariantCheck()
	sum := s.col.Summarize(s.cfg.Name, s.Now())
	sum.JobsInterrupted, sum.JobsMigrated, sum.JobsRetried = s.interrupted, s.migrated, s.retried
	sum.JobsLost, sum.LostWorkSec = s.lost, s.lostWork
	res := &Result{
		Summary:        sum,
		Checkpoints:    s.col.Checkpoints(),
		TotalWakeups:   sum.Wakeups,
		TotalShutdowns: sum.Shutdowns,
	}
	if s.agent != nil {
		res.AgentDiag = s.agent.String()
	}
	if s.tel != nil && s.tel.srv != nil {
		// Final publish so a scrape after completion sees the closing state.
		s.tel.publish(s)
	}
	return res, nil
}

// finishEpisode closes the DRL agent's learning episode exactly once.
func (s *Session) finishEpisode() {
	if s.finished {
		return
	}
	s.finished = true
	if s.agent != nil {
		s.agent.FinishEpisode(s.Now())
	}
}

// Close waits for every LSTM training round still in flight (re-raising a
// round's panic), stops the DRL agent's train-step helper goroutine,
// finalizes the learning episode (if Result has not already),
// dumps the epoch-trace file and shuts the telemetry endpoint down (if
// configured), stops the pump timer, and marks the session unusable.
// It is idempotent; the only error it can return is a failing epoch-trace
// dump (WithEpochTraceFile).
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	for _, j := range s.joiners {
		j.Join()
	}
	if s.agent != nil {
		s.agent.Close()
	}
	s.finishEpisode()
	err := s.telClose()
	if s.pump.Pending() {
		s.pump.Cancel()
	}
	s.closed = true
	return err
}
