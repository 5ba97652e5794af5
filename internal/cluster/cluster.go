package cluster

import (
	"fmt"
	"math"
	"math/bits"

	"hierdrl/internal/fault"
	"hierdrl/internal/sim"
)

// Config parameterizes a cluster of M servers. By default the cluster is
// homogeneous (every server gets Server verbatim); a non-empty Classes list
// partitions the machines into heterogeneous server classes instead.
type Config struct {
	// M is the number of physical servers (paper evaluates 30 and 40).
	M int
	// Server is the per-server configuration. With Classes set it remains the
	// template every class derives from (capacity, transition times, initial
	// state), each class overriding only speed and power curve.
	Server ServerConfig
	// HotSpotThreshold is the utilization above which the reliability
	// objective starts penalizing a server (hot-spot avoidance, Sec. V-A).
	HotSpotThreshold float64
	// Classes, when non-empty, declares heterogeneous server classes assigned
	// to contiguous id ranges in declaration order (class 0 gets servers
	// [0, Count0), class 1 the next Count1 ids, and so on). The counts must
	// sum to exactly M. An empty list is the historical homogeneous cluster,
	// bit for bit.
	Classes []ServerClass
}

// ServerClass describes one heterogeneous slice of the cluster: Count
// machines sharing a speed factor and a power curve. All other per-server
// parameters (capacity, Ton/Toff, initial state) come from Config.Server.
type ServerClass struct {
	// Name labels the class in docs and tooling (optional).
	Name string
	// Count is how many servers belong to this class (must be positive).
	Count int
	// Speed is the relative execution-speed factor: a job of nominal duration
	// D runs for D/Speed seconds on this class. Zero means 1.0 (nominal);
	// 1.0 leaves service times bitwise unchanged (IEEE x/1.0 == x).
	Speed float64
	// Power is the class's power curve. A zero model inherits Config.Server's
	// power model.
	Power PowerModel
}

// DefaultConfig returns the paper's cluster calibration with M servers.
func DefaultConfig(m int) Config {
	return Config{M: m, Server: DefaultServerConfig(), HotSpotThreshold: 0.8}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.M <= 0 {
		return fmt.Errorf("cluster: M must be positive, got %d", c.M)
	}
	if !(c.HotSpotThreshold > 0 && c.HotSpotThreshold < 1) {
		return fmt.Errorf("cluster: HotSpotThreshold must be in (0,1), got %v", c.HotSpotThreshold)
	}
	if err := c.Server.Validate(); err != nil {
		return err
	}
	if len(c.Classes) == 0 {
		return nil
	}
	total := 0
	for i, cl := range c.Classes {
		if cl.Count <= 0 {
			return fmt.Errorf("cluster: class %d (%q) Count must be positive, got %d", i, cl.Name, cl.Count)
		}
		if !finite(cl.Speed) || cl.Speed < 0 {
			return fmt.Errorf("cluster: class %d (%q) Speed must be a non-negative finite factor, got %v", i, cl.Name, cl.Speed)
		}
		if cl.Power != (PowerModel{}) {
			if err := cl.Power.Validate(); err != nil {
				return fmt.Errorf("cluster: class %d (%q): %w", i, cl.Name, err)
			}
		}
		total += cl.Count
	}
	if total != c.M {
		return fmt.Errorf("cluster: class counts sum to %d but M=%d", total, c.M)
	}
	return nil
}

// serverConfigFor derives server i's effective configuration: the shared
// Server template with its class's speed factor and power curve applied.
// Classes own contiguous id ranges in declaration order; with no classes the
// template is returned verbatim (homogeneous cluster).
func (c Config) serverConfigFor(i int) ServerConfig {
	sc := c.Server
	if len(c.Classes) == 0 {
		return sc
	}
	lo := 0
	for _, cl := range c.Classes {
		if i < lo+cl.Count {
			if cl.Speed != 0 {
				sc.Speed = cl.Speed
			}
			if cl.Power != (PowerModel{}) {
				sc.Power = cl.Power
			}
			return sc
		}
		lo += cl.Count
	}
	panic(fmt.Sprintf("cluster: server %d beyond class ranges (sum %d)", i, lo))
}

// Cluster aggregates M servers on one event lane, maintains incremental
// totals (power draw, jobs in system, reliability partial sums), and exposes
// the state snapshot the allocation tiers consume.
type Cluster struct {
	cfg     Config
	servers []*Server
	sm      *sim.Simulator

	// Incremental aggregates, indexed by server.
	totalPower   float64
	jobsInSystem int
	prevPower    []float64
	prevJobs     []int

	// Reliability state: reliTerms caches every server's per-resource
	// hot-spot penalty term, reliHot is a bitmask of servers with a non-zero
	// term, and reliSum memoizes the sparse ascending-order sum (recomputed
	// only when reliDirty).
	reliTerms []float64
	reliHot   []uint64
	reliDirty bool
	reliSum   float64

	// jobs is a counting multiset of per-server jobs-in-system values backing
	// an O(1) running maximum.
	jobs jobsMultiset

	completed int64

	// Fault-layer bookkeeping: down counts currently-down servers (crashed or
	// powered off for maintenance), draining counts servers with an open
	// maintenance window still finishing jobs, fails counts fault onsets
	// (crashes, degrade windows, maintenance windows).
	down     int
	draining int
	fails    int64

	// Failure domains (nil unless EnableFaults was given any): domOf maps
	// server -> domain and domUp counts each domain's members that are not
	// down; domainOutages counts the episodes in which a whole domain was
	// down at once (counted when its last member drops).
	domOf         []int32
	domUp         []int32
	domainOutages int64

	// idx, when enabled, maintains the least-committed-server tournament tree
	// (see LoadIndex).
	idx *LoadIndex

	// OnChange fires after any server changes power draw or occupancy, with
	// aggregates already updated. The global DRL tier uses it to integrate
	// its Eqn. (4) reward exactly.
	OnChange func(t sim.Time)
	// OnJobDone fires when any job completes.
	OnJobDone func(t sim.Time, j *Job)
	// OnTransition fires after any server changes power mode (wake begin,
	// wake complete, shutdown begin, shutdown complete). Nil by default;
	// transitions are rare relative to job events so the forwarding branch
	// costs nothing on the hot path.
	OnTransition func(t sim.Time, server int, from, to PowerState)
	// OnInterrupt fires for every job a crash evicts.
	OnInterrupt func(t sim.Time, j *Job)
	// OnMigrate fires for every queued job a maintenance drain migrates away.
	OnMigrate func(t sim.Time, j *Job)
	// OnDegrade fires on fail-slow onset (factor < 1) and restore
	// (factor == 1).
	OnDegrade func(t sim.Time, server int, factor float64)
	// OnDrainStart fires when a server's maintenance window opens, before its
	// queue migrates.
	OnDrainStart func(t sim.Time, server int)

	// faults records that EnableFaults installed failure clocks; faultKind
	// tells every server what a clock firing means, and degradeFactor is the
	// fail-slow speed multiplier.
	faults        bool
	faultKind     fault.Kind
	degradeFactor float64
}

// New builds a cluster of cfg.M servers on the event lane sm. dpmFactory is
// invoked once per server index, in ascending order, to produce that
// server's local power-management policy (the paper's distributed local
// tier: one independent manager per machine).
func New(cfg Config, sm *sim.Simulator, dpmFactory func(serverID int) DPMPolicy) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if dpmFactory == nil {
		return nil, fmt.Errorf("cluster: nil DPM factory")
	}
	if sm == nil {
		return nil, fmt.Errorf("cluster: nil event lane")
	}
	m := cfg.M
	c := &Cluster{
		cfg:       cfg,
		servers:   make([]*Server, m),
		sm:        sm,
		prevPower: make([]float64, m),
		prevJobs:  make([]int, m),
		reliTerms: make([]float64, m*NumResources),
		reliHot:   make([]uint64, (m+63)/64),
	}
	for i := 0; i < m; i++ {
		dpm := dpmFactory(i)
		s, err := newServer(c, i, cfg.serverConfigFor(i), dpm)
		if err != nil {
			return nil, fmt.Errorf("cluster: server %d: %w", i, err)
		}
		c.servers[i] = s
		c.totalPower += s.Power()
	}
	c.rebuildAggregates()
	return c, nil
}

// M returns the number of servers.
func (c *Cluster) M() int { return c.cfg.M }

// Server returns server i.
func (c *Cluster) Server(i int) *Server { return c.servers[i] }

// Submit dispatches job j to the given server at the current time.
func (c *Cluster) Submit(j *Job, server int) {
	if server < 0 || server >= len(c.servers) {
		panic(fmt.Sprintf("cluster: Submit to invalid server %d of %d", server, len(c.servers)))
	}
	c.servers[server].Submit(j)
}

// EnableFaults installs per-server fault clocks of the given kind and
// schedules each server's first onset event. clockFor is invoked in ascending
// server order and must return a clock for every server. degradeFactor is the
// fail-slow speed multiplier (ignored for other kinds). domains, when
// non-empty, partitions the servers into contiguous failure domains in
// declared order, whose whole-domain outages DomainOutages counts; their
// counts must sum to M. Call once, before any event fires.
func (c *Cluster) EnableFaults(clockFor func(serverID int) fault.Clock, kind fault.Kind, degradeFactor float64, domains []fault.Domain) {
	c.faults = true
	c.faultKind = kind
	c.degradeFactor = degradeFactor
	if len(domains) > 0 {
		c.domOf = make([]int32, 0, len(c.servers))
		c.domUp = make([]int32, len(domains))
		for d, dom := range domains {
			c.domUp[d] = int32(dom.Count)
			for k := 0; k < dom.Count; k++ {
				c.domOf = append(c.domOf, int32(d))
			}
		}
	}
	for i, s := range c.servers {
		s.fclock = clockFor(i)
		s.armFault(s.fclock.NextFailure())
	}
}

// serverFault maintains the down/failure counters. It runs before the
// eviction cascade. A maintenance power-off arrives with s.draining still
// set, so the server moves from the draining count to the down count
// atomically.
func (c *Cluster) serverFault(s *Server, down bool) {
	if down {
		c.down++
		c.fails++
		if s.draining {
			c.draining--
		}
	} else {
		c.down--
	}
}

// serverDegraded maintains the fault counter for fail-slow onsets and
// forwards the event.
func (c *Cluster) serverDegraded(t sim.Time, s *Server, degraded bool) {
	factor := 1.0
	if degraded {
		c.fails++
		factor = c.degradeFactor
	}
	if c.OnDegrade != nil {
		c.OnDegrade(t, s.ID(), factor)
	}
}

// serverDrain maintains the draining counter and forwards the window-open
// event.
func (c *Cluster) serverDrain(t sim.Time, s *Server) {
	c.draining++
	if c.OnDrainStart != nil {
		c.OnDrainStart(t, s.ID())
	}
}

// jobMigrated forwards one drain-migrated job through OnMigrate.
func (c *Cluster) jobMigrated(t sim.Time, j *Job) {
	if c.OnMigrate != nil {
		c.OnMigrate(t, j)
	}
}

// jobInterrupted forwards one crash-evicted job through OnInterrupt.
func (c *Cluster) jobInterrupted(t sim.Time, j *Job) {
	if c.OnInterrupt != nil {
		c.OnInterrupt(t, j)
	}
}

// DomainOutages returns how many times a whole failure domain has been down
// at once (zero without failure domains).
func (c *Cluster) DomainOutages() int64 { return c.domainOutages }

// DownServers returns how many servers are currently crashed.
func (c *Cluster) DownServers() int { return c.down }

// Failures returns the total crash count so far.
func (c *Cluster) Failures() int64 { return c.fails }

// Accepting reports whether server i can take new work: neither down nor
// draining for maintenance.
func (c *Cluster) Accepting(i int) bool {
	s := c.servers[i]
	return s.state != StateDown && !s.draining
}

// UnavailableServers returns how many servers currently reject new work —
// down (crashed or maintenance) plus draining. With no drain model it equals
// DownServers.
func (c *Cluster) UnavailableServers() int { return c.down + c.draining }

// NextUp returns the first accepting server scanning cyclically upward from
// `from` — the graceful-degradation remap applied when an allocator's pick
// is dead or draining. Returns from itself when it accepts work, -1 when no
// server does.
func (c *Cluster) NextUp(from int) int {
	m := len(c.servers)
	for k := 0; k < m; k++ {
		i := from + k
		if i >= m {
			i -= m
		}
		if c.Accepting(i) {
			return i
		}
	}
	return -1
}

// NextAvailAt returns the earliest instant an unavailable server's state can
// next change: the soonest repair among down servers, or the soonest run-dry
// instant among draining servers (whose graceful power-off then schedules the
// real repair — parking there makes progress because the completion event
// fires first at that instant). Call only while at least one server is
// unavailable.
func (c *Cluster) NextAvailAt() sim.Time {
	best := sim.Time(math.MaxFloat64)
	found := false
	for _, s := range c.servers {
		var at sim.Time
		switch {
		case s.Down():
			at = s.RepairAt()
		case s.draining:
			at = s.drainEndsAt()
		default:
			continue
		}
		if !found || at < best {
			best, found = at, true
		}
	}
	if !found {
		panic("cluster: NextAvailAt with no server unavailable")
	}
	return best
}

// DegradedSeconds integrates every server's fail-slow time through t.
func (c *Cluster) DegradedSeconds(t sim.Time) float64 {
	var d float64
	for _, s := range c.servers {
		d += s.DegradedSeconds(t)
	}
	return d
}

// DownSeconds integrates every server's downtime through t (the
// availability integral's numerator).
func (c *Cluster) DownSeconds(t sim.Time) float64 {
	var d float64
	for _, s := range c.servers {
		d += s.DownSeconds(t)
	}
	return d
}

func (c *Cluster) serverUpdated(t sim.Time, s *Server) {
	i := s.ID()
	jobs := s.JobsInSystem()
	c.totalPower += s.Power() - c.prevPower[i]
	c.jobsInSystem += jobs - c.prevJobs[i]
	if old := c.prevJobs[i]; old != jobs {
		c.jobs.move(old, jobs)
	}
	c.prevPower[i] = s.Power()
	c.prevJobs[i] = jobs
	updateReliTerms(c.reliTerms, c.reliHot, i, s.CommittedUtilization(), c.cfg.HotSpotThreshold)
	c.reliDirty = true
	if c.idx != nil {
		c.idx.Update(i, s.CommittedLoad())
	}
	if c.OnChange != nil {
		c.OnChange(t)
	}
}

// updateReliTerms recomputes one server's hot-spot penalty terms (the only
// terms a single-server event can change) and its bit in the hot mask; local
// is the index within terms/hot. The per-term arithmetic is exactly the full
// scan's, so the cached values are bitwise identical to freshly computed
// ones.
func updateReliTerms(terms []float64, hot []uint64, local int, u Resources, theta float64) {
	denom := (1 - theta) * (1 - theta)
	base := local * NumResources
	any := false
	for p, v := range u {
		if over := v - theta; over > 0 {
			terms[base+p] = over * over / denom
			any = true
		} else {
			terms[base+p] = 0
		}
	}
	if any {
		hot[local/64] |= 1 << (uint(local) % 64)
	} else {
		hot[local/64] &^= 1 << (uint(local) % 64)
	}
}

// sparseReliSum sums the non-zero cached penalty terms in ascending index
// order. Skipped terms are exactly 0.0 and adding 0.0 to a non-negative
// accumulator is exact, so the sparse sum is bitwise identical to a full
// in-order rescan of the cached terms.
func sparseReliSum(terms []float64, hot []uint64) float64 {
	var s float64
	for w, word := range hot {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			base := (w*64 + b) * NumResources
			for p := 0; p < NumResources; p++ {
				if t := terms[base+p]; t != 0 {
					s += t
				}
			}
		}
	}
	return s
}

// serverTransition counts failure-domain outages off the down and up edges,
// then forwards the transition, so an observer already sees the new count.
func (c *Cluster) serverTransition(t sim.Time, s *Server, from, to PowerState) {
	if c.domOf != nil {
		d := c.domOf[s.id]
		if to == StateDown {
			if c.domUp[d]--; c.domUp[d] == 0 {
				c.domainOutages++
			}
		} else if from == StateDown {
			c.domUp[d]++
		}
	}
	if c.OnTransition != nil {
		c.OnTransition(t, s.ID(), from, to)
	}
}

func (c *Cluster) jobDone(t sim.Time, j *Job) {
	c.completed++
	if c.OnJobDone != nil {
		c.OnJobDone(t, j)
	}
}

// TotalPower returns the cluster's instantaneous draw in watts, maintained
// incrementally (see InvariantCheck for the O(M) recomputation).
func (c *Cluster) TotalPower() float64 { return c.totalPower }

// JobsInSystem returns the number of jobs queued or running anywhere.
func (c *Cluster) JobsInSystem() int { return c.jobsInSystem }

// Completed returns the number of jobs finished so far.
func (c *Cluster) Completed() int64 { return c.completed }

// TotalEnergyJoules integrates every server's energy through time t.
func (c *Cluster) TotalEnergyJoules(t sim.Time) float64 {
	var e float64
	for _, s := range c.servers {
		e += s.EnergyJoules(t)
	}
	return e
}

// RangeEnergyJoules integrates energy through time t over servers [lo, hi).
// Server classes occupy contiguous index ranges, so per-class rollups are
// range sums.
func (c *Cluster) RangeEnergyJoules(t sim.Time, lo, hi int) float64 {
	var e float64
	for i := lo; i < hi; i++ {
		e += c.servers[i].EnergyJoules(t)
	}
	return e
}

// ServerClasses returns the configured heterogeneous classes (nil for a
// homogeneous cluster). Classes map onto contiguous server-index ranges in
// declaration order.
func (c *Cluster) ServerClasses() []ServerClass { return c.cfg.Classes }

// ReliabilityObj returns the Reli(t) term of the global reward (Eqn. 4):
// a hot-spot penalty sum_m sum_p max(0, u_mp - theta)^2 / (1-theta)^2 over
// the *committed* utilization (running plus queued demand — a backlogged
// server is the hottest spot there is), plus a co-location pressure term:
// the job count on the most loaded server (VM stacking on one failure
// domain). The paper motivates load balancing and anti-co-location but gives
// no formula; DESIGN.md records this concretization. Both terms increase
// when load piles onto individual machines, so the penalty is monotone in
// exactly the placements reliability engineering forbids.
// The value is maintained incrementally: each server event refreshes only
// that server's cached penalty terms and dirties the memoized sum, which is
// rescanned here in ascending server order. The cached value is the
// rescan's value, so memoization never changes a bit.
func (c *Cluster) ReliabilityObj() float64 {
	if c.reliDirty {
		c.reliSum = sparseReliSum(c.reliTerms, c.reliHot)
		c.reliDirty = false
	}
	return c.reliSum + float64(c.jobs.max)
}

// reliabilityRecompute is the reference scan of the reliability objective,
// recomputing every penalty term from live server state in ascending server
// order. checkAggregates and the equivalence tests compare it against the
// incremental value bit for bit.
func (c *Cluster) reliabilityRecompute() float64 {
	theta := c.cfg.HotSpotThreshold
	denom := (1 - theta) * (1 - theta)
	var hot float64
	maxJobs := 0
	for _, s := range c.servers {
		u := s.CommittedUtilization()
		for _, v := range u {
			if over := v - theta; over > 0 {
				hot += over * over / denom
			}
		}
		if n := s.JobsInSystem(); n > maxJobs {
			maxJobs = n
		}
	}
	return hot + float64(maxJobs)
}

// View is an immutable snapshot of cluster state handed to allocators.
type View struct {
	Now      sim.Time
	M        int
	Util     []Resources  // running utilization per server
	Pending  []Resources  // queued demand per server
	QueueLen []int        // waiting jobs per server
	InSystem []int        // waiting + running per server
	State    []PowerState // power mode per server
	// Speed is each server's effective execution-speed factor (all 1.0 on a
	// homogeneous cluster). Without a fail-slow fault model speeds are
	// immutable after construction, so the slice is filled once when the
	// view is first sized; under the degrade model SnapshotInto refreshes
	// it, so allocators see degraded capacity. Hand-built views may leave it
	// nil; speed-aware allocators must treat nil as "all nominal".
	Speed []float64
}

// SnapshotPrepare sizes v's slices for this cluster (allocating only when
// not already sized) and stamps M, without refreshing any server state.
func (c *Cluster) SnapshotPrepare(v *View) {
	m := len(c.servers)
	if len(v.Util) != m {
		v.Util = make([]Resources, m)
		v.Pending = make([]Resources, m)
		v.QueueLen = make([]int, m)
		v.InSystem = make([]int, m)
		v.State = make([]PowerState, m)
	}
	if len(v.Speed) != m {
		v.Speed = make([]float64, m)
		for i, s := range c.servers {
			v.Speed[i] = s.Speed()
		}
	}
	v.M = m
}

// SnapshotInto captures the current state of every server into v, reusing
// its slices when already sized for this cluster. After the first call on a
// given View the refresh is allocation-free. It returns v for convenience.
func (c *Cluster) SnapshotInto(v *View) *View {
	c.SnapshotPrepare(v)
	v.Now = c.sm.Now()
	for i, s := range c.servers {
		v.Util[i] = s.Utilization()
		v.Pending[i] = s.PendingDemand()
		v.QueueLen[i] = s.QueueLen()
		v.InSystem[i] = s.JobsInSystem()
		v.State[i] = s.State()
	}
	// Speed can change mid-run only under a fail-slow model: the branch keeps
	// the fault-free refresh loop (and its zero-alloc pin) byte-identical.
	if c.faultKind == fault.KindDegrade && v.Speed != nil {
		for i, s := range c.servers {
			v.Speed[i] = s.Speed()
		}
	}
	return v
}

// rebuildAggregates recomputes every derived aggregate from the servers:
// the per-server power and jobs caches, jobs in system and its running
// maximum, the reliability terms, the down/draining/fault counters, the
// failure domains' up counts, the completions and the load index. Every
// value is exactly what the incremental bookkeeping would hold — integers,
// copies of each server's draw, and updateReliTerms output — so a restored
// cluster rebuilds them instead of storing them. Only totalPower, a floating-point running sum
// whose bits depend on its history, is left alone.
func (c *Cluster) rebuildAggregates() {
	c.jobsInSystem, c.completed, c.down, c.draining, c.fails = 0, 0, 0, 0, 0
	clear(c.domUp)
	for i, s := range c.servers {
		c.prevPower[i] = s.Power()
		c.prevJobs[i] = s.JobsInSystem()
		c.jobsInSystem += c.prevJobs[i]
		updateReliTerms(c.reliTerms, c.reliHot, i, s.CommittedUtilization(), c.cfg.HotSpotThreshold)
		c.completed += s.completed
		c.fails += s.fails
		if s.Down() {
			c.down++
		} else if c.domOf != nil {
			c.domUp[c.domOf[i]]++
		}
		if s.draining {
			c.draining++
		}
	}
	c.jobs.init(c.prevJobs)
	c.reliDirty = true
	if c.idx != nil {
		c.rebuildLoadIndex()
	}
}

// checkAggregates recomputes the aggregates from scratch and reports where
// the incremental bookkeeping drifted. Decoding runs it on a restored
// cluster, where only the stored total power can disagree.
func (c *Cluster) checkAggregates() error {
	var power float64
	jobs, down, unavail := 0, 0, 0
	for _, s := range c.servers {
		power += s.Power()
		jobs += s.JobsInSystem()
		if s.Down() {
			down++
		}
		if s.Down() || s.Draining() {
			unavail++
		}
	}
	switch {
	case !(math.Abs(power-c.TotalPower()) <= 1e-6):
		return fmt.Errorf("cluster: power drift: incremental %v recomputed %v", c.TotalPower(), power)
	case jobs != c.JobsInSystem():
		return fmt.Errorf("cluster: jobs drift: incremental %d recomputed %d", c.JobsInSystem(), jobs)
	case down != c.DownServers():
		return fmt.Errorf("cluster: down-server drift: incremental %d recomputed %d", c.DownServers(), down)
	case unavail != c.UnavailableServers():
		return fmt.Errorf("cluster: unavailable-server drift: incremental %d recomputed %d", c.UnavailableServers(), unavail)
	}
	if inc, ref := c.ReliabilityObj(), c.reliabilityRecompute(); inc != ref {
		return fmt.Errorf("cluster: reliability drift: incremental %v recomputed %v", inc, ref)
	}
	return nil
}

// InvariantCheck recomputes the aggregates from scratch and panics if the
// incremental bookkeeping drifted. Tests call it liberally.
func (c *Cluster) InvariantCheck() {
	if err := c.checkAggregates(); err != nil {
		panic(err.Error())
	}
	if c.idx != nil {
		c.idx.invariantCheck(c)
	}
}

// jobsMultiset is a counting multiset of per-server jobs-in-system values
// backing an O(1) amortized running maximum (the co-location term).
type jobsMultiset struct {
	buckets []int
	max     int
}

// init fills the multiset from every server's jobs-in-system count.
func (m *jobsMultiset) init(counts []int) {
	m.max = 0
	for _, n := range counts {
		m.max = max(m.max, n)
	}
	m.buckets = make([]int, max(8, m.max+1))
	for _, n := range counts {
		m.buckets[n]++
	}
}

// move shifts one server's jobs-in-system count between buckets and
// maintains the running maximum.
func (m *jobsMultiset) move(old, now int) {
	m.buckets[old]--
	if now >= len(m.buckets) {
		grown := make([]int, 2*now+1)
		copy(grown, m.buckets)
		m.buckets = grown
	}
	m.buckets[now]++
	if now > m.max {
		m.max = now
	} else if old == m.max && m.buckets[old] == 0 {
		for m.max > 0 && m.buckets[m.max] == 0 {
			m.max--
		}
	}
}
