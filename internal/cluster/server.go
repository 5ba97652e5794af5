package cluster

import (
	"fmt"
	"math"

	"hierdrl/internal/fault"
	"hierdrl/internal/sim"
	"hierdrl/internal/trace"
)

// PowerState is a server's power mode.
type PowerState int

// Power modes. Idle is represented as StateActive with zero running jobs;
// the DPM layer observes that condition through the decision-epoch hooks.
const (
	StateSleep PowerState = iota + 1
	StateWaking
	StateActive
	StateShuttingDown
	// StateDown is a crashed or maintenance-drained server (fault
	// injection): zero power draw, no jobs, rejected by every allocator view
	// until its repair completes / its maintenance window elapses.
	StateDown
)

// String implements fmt.Stringer.
func (s PowerState) String() string {
	switch s {
	case StateSleep:
		return "sleep"
	case StateWaking:
		return "waking"
	case StateActive:
		return "active"
	case StateShuttingDown:
		return "shutting-down"
	case StateDown:
		return "down"
	default:
		return fmt.Sprintf("PowerState(%d)", int(s))
	}
}

// DPMPolicy is the local tier's interface to one server. Implementations
// live in internal/local (RL-based timeout manager, fixed timeout, always-on,
// ad-hoc immediate sleep).
//
// The three methods map to the paper's decision-epoch taxonomy (Sec. VI-B):
// OnIdle is case (1) — the server just became idle with an empty queue and
// the policy returns the sleep timeout in seconds (0 = sleep immediately,
// +Inf = stay on). OnArrival covers cases (2) and (3) — a job arrived, and
// the pre-transition power state tells the policy which case applies.
// Observe streams reward-rate changes (power draw and jobs in system) so the
// policy can integrate its Eqn. (5) reward exactly.
type DPMPolicy interface {
	OnIdle(t sim.Time, s *Server) float64
	OnArrival(t sim.Time, s *Server, stateBefore PowerState)
	Observe(t sim.Time, powerW float64, jobsInSystem int)
}

// InstantRecorder is implemented by a DPMPolicy whose checkpoint state holds
// instants of the lane it runs on. Restore rejects a snapshot whose
// LatestInstant is after the lane clock, or NaN: the policy would panic on
// its next, earlier event.
type InstantRecorder interface {
	LatestInstant() float64
}

// ServerConfig parameterizes one server.
type ServerConfig struct {
	// Capacity is the resource capacity (normally UnitCapacity).
	Capacity Resources
	// Power is the power model.
	Power PowerModel
	// TonSeconds is the sleep->active transition time (paper: 30 s).
	TonSeconds float64
	// ToffSeconds is the active->sleep transition time (paper: 30 s).
	ToffSeconds float64
	// InitialState is the power mode at t=0 (default StateSleep).
	InitialState PowerState
	// Speed is the relative execution-speed factor: a job of nominal
	// duration D occupies this server for D/Speed seconds. Zero means 1.0,
	// and 1.0 leaves service times bitwise unchanged (IEEE x/1.0 == x), so
	// homogeneous configurations reproduce historical results exactly.
	Speed float64
}

// DefaultServerConfig returns the paper's calibration.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		Capacity:     UnitCapacity(),
		Power:        DefaultPowerModel(),
		TonSeconds:   30,
		ToffSeconds:  30,
		InitialState: StateSleep,
	}
}

// Validate checks the configuration.
func (c ServerConfig) Validate() error {
	if err := c.Power.Validate(); err != nil {
		return err
	}
	if !finite(c.TonSeconds) || !finite(c.ToffSeconds) || c.TonSeconds < 0 || c.ToffSeconds < 0 {
		return fmt.Errorf("cluster: transition times must be non-negative and finite, got Ton=%v Toff=%v",
			c.TonSeconds, c.ToffSeconds)
	}
	if !finite(c.Speed) || c.Speed < 0 {
		return fmt.Errorf("cluster: Speed must be a non-negative finite factor, got %v", c.Speed)
	}
	for p, v := range c.Capacity {
		if !finite(v) || v <= 0 {
			return fmt.Errorf("cluster: capacity resource %d must be positive and finite, got %v", p, v)
		}
	}
	switch c.InitialState {
	case StateSleep, StateActive, 0:
	default:
		return fmt.Errorf("cluster: initial state must be sleep or active, got %v", c.InitialState)
	}
	return nil
}

// Server simulates one physical machine: FCFS queue with head-of-line
// blocking, resource accounting, the power-mode state machine of Fig. 4, and
// exact energy integration.
type Server struct {
	id  int
	sm  *sim.Simulator
	cfg ServerConfig
	dpm DPMPolicy
	// cl is the owning cluster, which every server event reports to
	// directly (aggregates, completions, transitions, fault edges).
	cl *Cluster

	state PowerState
	// speed is the current effective execution-speed factor; baseSpeed is the
	// configured class speed (cfg.Speed, 0 -> 1). They differ only while a
	// fail-slow fault holds the server degraded.
	speed     float64
	baseSpeed float64
	used      Resources
	// queue is the FCFS wait line, consumed through qhead so steady-state
	// push/pop reuses the backing array instead of re-slicing capacity away
	// (append after s.queue[1:] re-slicing allocated once per drained queue).
	queue   []*Job
	qhead   int
	pending Resources // cached sum of queued jobs' demands
	running int

	timeout sim.Timer
	// trans tracks the in-flight wake/shutdown completion event so a crash
	// can cancel it; the fault-free path stores and clears it but never
	// cancels (pure value writes, no behavior change).
	trans sim.Timer

	// Fault layer (all zero when no failure clock is attached). What a clock
	// firing means — crash, degrade or drain — is the cluster's faultKind.
	fclock fault.Clock
	// flt is the pending fault-onset timer while up, the pending repair timer
	// while down, and the pending restore timer while degraded — at most one
	// exists at a time, and only a draining server (running jobs winding
	// down, power-off not yet scheduled) has none.
	flt sim.Timer
	// runJobs lists executing jobs so a crash can interrupt them
	// deterministically, in list order; maintained only when fclock != nil.
	// A start appends and a completion swap-removes (the last entry moves
	// into the freed slot), so the order is start order only until the
	// first completion.
	runJobs []*Job
	fails   int64
	repairs int64
	downAt  sim.Time
	downSec float64
	// Fail-slow bookkeeping: degraded intervals mirror the downAt/downSec
	// scheme but never change the power state.
	degraded    bool
	degradedAt  sim.Time
	degradedSec float64
	// Maintenance-drain bookkeeping: draining is true from the window opening
	// until the graceful power-off (only ever while StateActive with running
	// jobs — an idle server powers off the instant its window opens).
	draining bool
	drains   int64

	// Energy accounting.
	lastT     sim.Time
	lastPower float64
	energyJ   float64

	// Statistics.
	wakeups   int64
	shutdowns int64
	completed int64
}

// newServer builds server id of cluster cl, on cl's event lane. dpm must not
// be nil (use local.AlwaysOn for an unmanaged server).
func newServer(cl *Cluster, id int, cfg ServerConfig, dpm DPMPolicy) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if dpm == nil {
		return nil, fmt.Errorf("cluster: server %d: nil DPM policy", id)
	}
	st := cfg.InitialState
	if st == 0 {
		st = StateSleep
	}
	sp := cfg.Speed
	if sp == 0 {
		sp = 1
	}
	s := &Server{
		id:        id,
		sm:        cl.sm,
		cfg:       cfg,
		dpm:       dpm,
		cl:        cl,
		state:     st,
		speed:     sp,
		baseSpeed: sp,
		lastT:     cl.sm.Now(),
	}
	s.lastPower = s.currentPower()
	return s, nil
}

// ID returns the server index.
func (s *Server) ID() int { return s.id }

// State returns the current power mode.
func (s *Server) State() PowerState { return s.state }

// Speed returns the current effective execution-speed factor (1.0 =
// nominal); a fail-slow fault lowers it until the matching restore.
func (s *Server) Speed() float64 { return s.speed }

// QueueLen returns the number of jobs waiting (not yet granted resources).
func (s *Server) QueueLen() int { return len(s.queue) - s.qhead }

// JobsInSystem returns waiting plus executing jobs (the JQ(t) signal feeding
// Eqn. (5), via Little's law a proxy for per-job latency).
func (s *Server) JobsInSystem() int { return len(s.queue) - s.qhead + s.running }

// Utilization returns the fractional utilization per resource dimension.
func (s *Server) Utilization() Resources {
	var u Resources
	for p := range u {
		u[p] = s.used[p] / s.cfg.Capacity[p]
	}
	return u
}

// CPUUtil returns the CPU utilization fraction driving the power model.
func (s *Server) CPUUtil() float64 {
	return s.used[trace.CPU] / s.cfg.Capacity[trace.CPU]
}

// PendingDemand returns the total resource demand of queued jobs
// (maintained incrementally).
func (s *Server) PendingDemand() Resources { return s.pending }

// CommittedUtilization returns running plus queued demand per resource,
// normalized by capacity — the backlog-aware load signal used by the
// reliability objective and the DRL state.
func (s *Server) CommittedUtilization() Resources {
	var u Resources
	for p := range u {
		u[p] = (s.used[p] + s.pending[p]) / s.cfg.Capacity[p]
	}
	return u
}

// CommittedLoad returns the binding-dimension committed load — exactly the
// expression policy.LeastLoaded evaluates from a snapshot
// (Utilization().Add(PendingDemand()).MaxFrac()), so the incremental
// LoadIndex stays bitwise-faithful to the sequential scan. A down server
// reports +Inf, which masks it out of every least-committed tournament (the
// LoadIndex tree handles +Inf natively — its padding leaves already use it).
// Down and draining servers both report +Inf: a draining server still runs
// its last jobs but accepts no new work, so it must lose every tournament.
func (s *Server) CommittedLoad() float64 {
	if s.state == StateDown || s.draining {
		return math.Inf(1)
	}
	return s.Utilization().Add(s.pending).MaxFrac()
}

// Power returns the instantaneous power draw in watts.
func (s *Server) Power() float64 { return s.lastPower }

// EnergyJoules returns the energy integrated through time t.
func (s *Server) EnergyJoules(t sim.Time) float64 {
	if t < s.lastT {
		panic(fmt.Sprintf("cluster: EnergyJoules time %v before last update %v", t, s.lastT))
	}
	return s.energyJ + s.lastPower*float64(t-s.lastT)
}

// Wakeups returns how many sleep->active transitions have begun.
func (s *Server) Wakeups() int64 { return s.wakeups }

// Shutdowns returns how many active->sleep transitions have begun.
func (s *Server) Shutdowns() int64 { return s.shutdowns }

// Completed returns the number of finished jobs.
func (s *Server) Completed() int64 { return s.completed }

// setState changes the power mode and reports the transition to the cluster.
func (s *Server) setState(to PowerState) {
	from := s.state
	s.state = to
	s.cl.serverTransition(s.sm.Now(), s, from, to)
}

// queuePop removes and returns the queue head. The backing array is consumed
// through qhead and recycled when the queue drains (or compacted when the
// dead prefix dominates), so steady-state queueing never reallocates. This
// FCFS line only ever grows at the tail; the session's pending arrival queue
// (pendingQueue, package hierdrl) also inserts at the head and keeps its own
// rule.
func (s *Server) queuePop() *Job {
	j := s.queue[s.qhead]
	s.queue[s.qhead] = nil
	s.qhead++
	if s.qhead == len(s.queue) {
		s.queue = s.queue[:0]
		s.qhead = 0
	} else if s.qhead > 32 && s.qhead*2 > len(s.queue) {
		n := copy(s.queue, s.queue[s.qhead:])
		for i := n; i < len(s.queue); i++ {
			s.queue[i] = nil
		}
		s.queue = s.queue[:n]
		s.qhead = 0
	}
	return j
}

func (s *Server) currentPower() float64 {
	switch s.state {
	case StateSleep:
		return s.cfg.Power.Sleep()
	case StateWaking, StateShuttingDown:
		return s.cfg.Power.Transition()
	case StateActive:
		return s.cfg.Power.Active(s.CPUUtil())
	case StateDown:
		return 0
	default:
		panic(fmt.Sprintf("cluster: server %d in invalid state %v", s.id, s.state))
	}
}

// sync integrates energy up to now, recomputes power, and reports to the
// cluster, then to the DPM. Call after every state mutation.
func (s *Server) sync() {
	now := s.sm.Now()
	s.energyJ += s.lastPower * float64(now-s.lastT)
	s.lastT = now
	s.lastPower = s.currentPower()
	s.cl.serverUpdated(now, s)
	s.dpm.Observe(now, s.lastPower, s.JobsInSystem())
}

// Submit hands a job to this server at the current simulation time. It
// panics if the job's demand exceeds the server's total capacity — such a
// job would block the FCFS queue forever, which is always a modeling error.
func (s *Server) Submit(j *Job) {
	if !j.Req.FitsIn(s.cfg.Capacity) {
		panic(fmt.Sprintf("cluster: job %d demand %v exceeds server %d capacity %v",
			j.ID, j.Req, s.id, s.cfg.Capacity))
	}
	if s.state == StateDown || s.draining {
		panic(fmt.Sprintf("cluster: job %d submitted to unavailable server %d (state %v, draining %v; callers must remap through NextUp)",
			j.ID, s.id, s.state, s.draining))
	}
	now := s.sm.Now()
	stateBefore := s.state
	j.Server = s.id

	s.queue = append(s.queue, j)
	s.pending = s.pending.Add(j.Req)
	// Cancel a pending idle timeout: the server has work again.
	if s.timeout.Cancel() {
		s.timeout = sim.Timer{}
	}

	switch s.state {
	case StateSleep:
		s.beginWake()
	case StateActive:
		s.tryStart()
	case StateWaking, StateShuttingDown:
		// Job waits; the in-flight transition completes first (Fig. 4(a)).
	}
	s.sync()
	// The DPM hears about the arrival after the server reacted, with the
	// pre-transition state so it can classify the epoch (case 2 vs 3).
	s.dpm.OnArrival(now, s, stateBefore)
}

// Event trampolines: package-level functions plus a pointer-shaped argument
// make every hot-path Schedule call allocation-free (no closure, no method
// value).
func serverWakeComplete(a any)     { a.(*Server).onWakeComplete() }
func serverShutdownComplete(a any) { a.(*Server).onShutdownComplete() }
func serverTimeoutExpire(a any)    { a.(*Server).onTimeoutExpire() }
func jobComplete(a any)            { j := a.(*Job); j.srv.onJobComplete(j) }
func serverCrash(a any)            { a.(*Server).onCrash() }
func serverRepair(a any)           { a.(*Server).onRepair() }
func serverDegradeStart(a any)     { a.(*Server).onDegradeStart() }
func serverDegradeEnd(a any)       { a.(*Server).onDegradeEnd() }
func serverDrainStart(a any)       { a.(*Server).onDrainStart() }

func (s *Server) beginWake() {
	s.setState(StateWaking)
	s.wakeups++
	s.trans = s.sm.ScheduleAfterArg(s.cfg.TonSeconds, serverWakeComplete, s)
}

func (s *Server) onWakeComplete() {
	s.trans = sim.Timer{}
	if s.state != StateWaking {
		panic(fmt.Sprintf("cluster: server %d wake completion in state %v", s.id, s.state))
	}
	s.setState(StateActive)
	s.tryStart()
	s.sync()
	if s.running == 0 && s.QueueLen() == 0 {
		// Defensive: a wake with nothing to do still constitutes an idle
		// decision epoch.
		s.enterIdleEpoch()
	}
}

// tryStart grants resources to queued jobs in strict FCFS order, stopping at
// the first job that does not fit (head-of-line blocking, Sec. III).
func (s *Server) tryStart() {
	now := s.sm.Now()
	for s.qhead < len(s.queue) {
		head := s.queue[s.qhead]
		free := s.cfg.Capacity.Sub(s.used)
		if !head.Req.FitsIn(free) {
			return
		}
		s.queuePop()
		s.pending = s.pending.Sub(head.Req)
		s.used = s.used.Add(head.Req)
		s.running++
		head.Started = now
		head.started = true
		head.srv = s
		// Service time scales with the class speed factor; at the default
		// speed 1.0 the division is exact, so homogeneous clusters schedule
		// the historical instants bit for bit.
		head.done = s.sm.ScheduleAfterArg(head.Duration/s.speed, jobComplete, head)
		if s.fclock != nil {
			head.runIdx = int32(len(s.runJobs))
			s.runJobs = append(s.runJobs, head)
		}
	}
}

func (s *Server) onJobComplete(j *Job) {
	now := s.sm.Now()
	j.done = sim.Timer{}
	if s.fclock != nil {
		// Swap-remove from the crash interrupt list.
		last := len(s.runJobs) - 1
		moved := s.runJobs[last]
		s.runJobs[j.runIdx] = moved
		moved.runIdx = j.runIdx
		s.runJobs[last] = nil
		s.runJobs = s.runJobs[:last]
	}
	s.used = s.used.Sub(j.Req)
	if !s.used.NonNegative() {
		panic(fmt.Sprintf("cluster: server %d negative utilization after job %d", s.id, j.ID))
	}
	s.running--
	s.completed++
	j.Finished = now
	j.finished = true

	s.tryStart()
	s.sync()
	s.cl.jobDone(now, j)
	if s.draining {
		// A draining server bypasses the DPM: once the last running job
		// finishes (its queue migrated away at the window opening), it powers
		// off gracefully instead of entering an idle decision epoch.
		if s.running == 0 {
			s.maintenanceDown()
		}
	} else if s.state == StateActive && s.running == 0 && s.QueueLen() == 0 {
		s.enterIdleEpoch()
	}
}

// enterIdleEpoch is decision-epoch case (1): ask the DPM for a timeout.
func (s *Server) enterIdleEpoch() {
	timeout := s.dpm.OnIdle(s.sm.Now(), s)
	switch {
	case timeout < 0 || math.IsNaN(timeout):
		panic(fmt.Sprintf("cluster: server %d DPM returned invalid timeout %v", s.id, timeout))
	case timeout == 0:
		s.beginShutdown()
		s.sync()
	case math.IsInf(timeout, 1):
		// Stay active indefinitely.
	default:
		s.timeout = s.sm.ScheduleAfterArg(timeout, serverTimeoutExpire, s)
	}
}

func (s *Server) onTimeoutExpire() {
	s.timeout = sim.Timer{}
	if s.state != StateActive || s.running != 0 || s.QueueLen() != 0 {
		panic(fmt.Sprintf("cluster: server %d timeout expired in state %v run=%d q=%d",
			s.id, s.state, s.running, s.QueueLen()))
	}
	s.beginShutdown()
	s.sync()
}

func (s *Server) beginShutdown() {
	s.setState(StateShuttingDown)
	s.shutdowns++
	s.trans = s.sm.ScheduleAfterArg(s.cfg.ToffSeconds, serverShutdownComplete, s)
}

func (s *Server) onShutdownComplete() {
	s.trans = sim.Timer{}
	if s.state != StateShuttingDown {
		panic(fmt.Sprintf("cluster: server %d shutdown completion in state %v", s.id, s.state))
	}
	s.setState(StateSleep)
	s.sync()
	if s.QueueLen() > 0 {
		// A job arrived mid-shutdown (Fig. 4(a)): wake right back up.
		s.beginWake()
		s.sync()
	}
}

// armFault schedules the next fault onset through the cluster's fault
// kind's trampoline.
func (s *Server) armFault(delay float64) {
	switch s.cl.faultKind {
	case fault.KindDegrade:
		s.flt = s.sm.ScheduleAfterArg(delay, serverDegradeStart, s)
	case fault.KindDrain:
		s.flt = s.sm.ScheduleAfterArg(delay, serverDrainStart, s)
	default:
		s.flt = s.sm.ScheduleAfterArg(delay, serverCrash, s)
	}
}

// onCrash is the crash event. The eviction order is part of the determinism
// contract: state flips to StateDown first (so the transition observer sees
// the failure before any job callback), the cluster counts the failure, then
// running jobs are interrupted in runJobs order (not start order once a job
// has completed: see runJobs), then the FCFS queue front to back. Energy
// integrates at the pre-crash power before the draw drops to zero.
func (s *Server) onCrash() {
	s.flt = sim.Timer{}
	now := s.sm.Now()
	if s.timeout.Cancel() {
		s.timeout = sim.Timer{}
	}
	if s.trans.Cancel() {
		s.trans = sim.Timer{}
	}
	s.setState(StateDown)
	s.fails++
	s.downAt = now
	s.cl.serverFault(s, true)
	for i, j := range s.runJobs {
		j.done.Cancel()
		j.done = sim.Timer{}
		j.srv = nil
		s.runJobs[i] = nil
		s.cl.jobInterrupted(now, j)
	}
	s.runJobs = s.runJobs[:0]
	s.running = 0
	s.used = Resources{}
	for s.qhead < len(s.queue) {
		s.cl.jobInterrupted(now, s.queuePop())
	}
	s.pending = Resources{}
	s.sync()
	s.flt = s.sm.ScheduleAfterArg(s.fclock.NextRepair(), serverRepair, s)
}

// onRepair is the repair event: the server rejoins cold (StateSleep, empty
// queue) and its next crash is drawn immediately from its own chain.
func (s *Server) onRepair() {
	s.flt = sim.Timer{}
	now := s.sm.Now()
	if s.state != StateDown {
		panic(fmt.Sprintf("cluster: server %d repair in state %v", s.id, s.state))
	}
	s.repairs++
	s.downSec += float64(now - s.downAt)
	s.setState(StateSleep)
	s.cl.serverFault(s, false)
	s.sync()
	s.armFault(s.fclock.NextFailure())
}

// onDegradeStart is the fail-slow onset: the effective speed drops to
// baseSpeed*factor for jobs that start from now on; already-running jobs
// keep their committed completion instants. Power draw, utilization, and the
// power state are untouched, so no sync is needed — only the speed changes.
func (s *Server) onDegradeStart() {
	s.flt = sim.Timer{}
	now := s.sm.Now()
	s.degraded = true
	s.degradedAt = now
	s.fails++
	s.speed = s.baseSpeed * s.cl.degradeFactor
	s.cl.serverDegraded(now, s, true)
	s.flt = s.sm.ScheduleAfterArg(s.fclock.NextRepair(), serverDegradeEnd, s)
}

// onDegradeEnd restores full speed and draws the next degrade onset.
func (s *Server) onDegradeEnd() {
	s.flt = sim.Timer{}
	now := s.sm.Now()
	s.degraded = false
	s.degradedSec += float64(now - s.degradedAt)
	s.repairs++
	s.speed = s.baseSpeed
	s.cl.serverDegraded(now, s, false)
	s.flt = s.sm.ScheduleAfterArg(s.fclock.NextFailure(), serverDegradeStart, s)
}

// onDrainStart opens a maintenance window. The ordering mirrors onCrash —
// the cluster hears of the window first, then the job cascade — but the
// cascade is gentler: queued jobs migrate (front to back, counted
// JobsMigrated upstream) instead of being interrupted, and running jobs
// finish in place. The power-off happens immediately if nothing is running,
// else when the last job drains.
func (s *Server) onDrainStart() {
	s.flt = sim.Timer{}
	now := s.sm.Now()
	s.draining = true
	s.drains++
	if s.timeout.Cancel() {
		s.timeout = sim.Timer{}
	}
	s.cl.serverDrain(now, s)
	for s.qhead < len(s.queue) {
		s.cl.jobMigrated(now, s.queuePop())
	}
	s.pending = Resources{}
	s.sync()
	if s.running == 0 {
		s.maintenanceDown()
	}
}

// maintenanceDown is the graceful power-off at the end of a drain: same
// StateDown machinery as a crash (zero draw, masked from allocators, repair
// timer pending) but with nothing evicted. The cluster hears of the fault
// while draining is still set, so it can move the server from its draining
// count to its down count atomically.
func (s *Server) maintenanceDown() {
	now := s.sm.Now()
	if s.trans.Cancel() {
		s.trans = sim.Timer{}
	}
	s.setState(StateDown)
	s.fails++
	s.downAt = now
	s.cl.serverFault(s, true)
	s.draining = false
	s.sync()
	s.flt = s.sm.ScheduleAfterArg(s.fclock.NextRepair(), serverRepair, s)
}

// Down reports whether the server is currently crashed.
func (s *Server) Down() bool { return s.state == StateDown }

// Failures returns how many crashes have occurred.
func (s *Server) Failures() int64 { return s.fails }

// Repairs returns how many repairs have completed.
func (s *Server) Repairs() int64 { return s.repairs }

// DownSeconds returns the total downtime through t, including the still-open
// interval if the server is down now.
func (s *Server) DownSeconds(t sim.Time) float64 {
	d := s.downSec
	if s.state == StateDown {
		d += float64(t - s.downAt)
	}
	return d
}

// RepairedDownSeconds returns the downtime of completed down intervals only
// (the MTTR numerator).
func (s *Server) RepairedDownSeconds() float64 { return s.downSec }

// RepairAt returns the scheduled repair instant; meaningful only while the
// server is down (the pending fault timer is then the repair event).
func (s *Server) RepairAt() sim.Time { return s.flt.At() }

// Draining reports whether a maintenance window is open but the server is
// still finishing running jobs (it accepts no new work meanwhile).
func (s *Server) Draining() bool { return s.draining }

// Drains returns how many maintenance windows have opened.
func (s *Server) Drains() int64 { return s.drains }

// DegradedSeconds returns the total time spent degraded through t, including
// the still-open interval if the server is degraded now.
func (s *Server) DegradedSeconds(t sim.Time) float64 {
	d := s.degradedSec
	if s.degraded {
		d += float64(t - s.degradedAt)
	}
	return d
}

// drainEndsAt returns the instant a draining server runs dry (the latest
// committed completion among its running jobs) — the next time its
// availability can change, used for all-unavailable parking.
func (s *Server) drainEndsAt() sim.Time {
	var at sim.Time
	for _, j := range s.runJobs {
		if j.done.At() > at {
			at = j.done.At()
		}
	}
	return at
}
