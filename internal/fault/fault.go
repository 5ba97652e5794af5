// Package fault implements the deterministic failure/repair subsystem:
// per-server exponential crash and repair clocks plus the retry policies
// that decide what happens to jobs a crash interrupts.
//
// Determinism contract: each server's clock is an independent RNG chain
// seeded from (run seed, server ID) only, and it is advanced exclusively by
// that server's own crash/repair events. No draw ever crosses servers and
// nothing else consumes from these chains, so the full failure schedule of
// every server is a pure function of (seed, serverID, mttf, mttr) —
// independent of event interleaving and workload. That is what keeps
// fault-enabled runs bitwise run-to-run reproducible.
package fault

import (
	"fmt"
	"math"

	"hierdrl/internal/mat"
	"hierdrl/internal/trace"
)

// Clock draws one server's crash/repair delays, in seconds. Implementations
// must be deterministic given their construction inputs: the engine calls
// NextFailure when the server (re)joins the cluster and NextRepair when it
// crashes, strictly alternating, and replays the same call sequence on every
// run.
type Clock interface {
	// NextFailure returns the delay until the server's next crash, measured
	// from the instant it (re)joined. The crash clock runs in wall-clock
	// time regardless of power state — a server can crash while asleep.
	NextFailure() float64
	// NextRepair returns the delay until a crashed server rejoins (cold).
	NextRepair() float64
}

// RetryPolicy decides an interrupted job's fate. Retry is consulted on the
// attempt-th interruption of job j (attempt counts from 1 across the job's
// lifetime, surviving multiple crashes): it returns the requeue delay in
// seconds and whether to retry at all — false drops the job as lost.
type RetryPolicy interface {
	Retry(now float64, j trace.Job, attempt int) (delaySec float64, retry bool)
}

// chainSeed mixes the run seed and a server ID into one well-separated
// 63-bit seed (splitmix64-style finalizer). Adjacent server IDs — and
// adjacent run seeds — land in unrelated regions of the generator's state
// space, so per-server chains are statistically independent.
func chainSeed(seed int64, serverID int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(serverID+1)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1)
}

// ExpCrash is the built-in "exp-crash" model: i.i.d. exponential time to
// failure and time to repair, the textbook Markovian machine-repair model.
type ExpCrash struct {
	seed       int64
	mttf, mttr float64
}

// NewExpCrash builds an exponential crash/repair model with the given mean
// time to failure and mean time to repair (both in seconds).
func NewExpCrash(seed int64, mttfSec, mttrSec float64) (*ExpCrash, error) {
	if !(mttfSec > 0) || math.IsInf(mttfSec, 1) {
		return nil, fmt.Errorf("fault: MTTF %v must be positive and finite", mttfSec)
	}
	if !(mttrSec > 0) || math.IsInf(mttrSec, 1) {
		return nil, fmt.Errorf("fault: MTTR %v must be positive and finite", mttrSec)
	}
	return &ExpCrash{seed: seed, mttf: mttfSec, mttr: mttrSec}, nil
}

// ClockFor returns server serverID's clock: every server gets its own chain
// seeded from (run seed, serverID).
func (m *ExpCrash) ClockFor(serverID int) Clock {
	return &expClock{
		rng:      mat.NewRNG(chainSeed(m.seed, serverID)),
		failRate: 1 / m.mttf,
		repRate:  1 / m.mttr,
	}
}

type expClock struct {
	rng      *mat.RNG
	failRate float64
	repRate  float64
}

func (c *expClock) NextFailure() float64 { return c.rng.Exponential(c.failRate) }
func (c *expClock) NextRepair() float64  { return c.rng.Exponential(c.repRate) }

// Immediate is the built-in "immediate" retry policy: every interrupted job
// requeues at the crash instant with no delay and no attempt cap.
type Immediate struct{}

// Retry implements RetryPolicy.
func (Immediate) Retry(now float64, j trace.Job, attempt int) (float64, bool) {
	return 0, true
}

// Backoff is the built-in "backoff" retry policy: capped exponential
// backoff. Attempt k waits min(BaseSec * 2^(k-1), CapSec); when Max > 0 a
// job is dropped after Max interruptions.
type Backoff struct {
	BaseSec float64
	CapSec  float64
	Max     int // 0 = unlimited attempts
}

// NewBackoff validates and builds a capped exponential backoff policy.
func NewBackoff(baseSec, capSec float64, max int) (Backoff, error) {
	if !(baseSec > 0) || math.IsInf(baseSec, 1) {
		return Backoff{}, fmt.Errorf("fault: backoff base %v must be positive and finite", baseSec)
	}
	if !(capSec >= baseSec) || math.IsInf(capSec, 1) {
		return Backoff{}, fmt.Errorf("fault: backoff cap %v must be finite and >= base %v", capSec, baseSec)
	}
	if max < 0 {
		return Backoff{}, fmt.Errorf("fault: backoff max %d must be non-negative", max)
	}
	return Backoff{BaseSec: baseSec, CapSec: capSec, Max: max}, nil
}

// Retry implements RetryPolicy.
func (b Backoff) Retry(now float64, j trace.Job, attempt int) (float64, bool) {
	if b.Max > 0 && attempt > b.Max {
		return 0, false
	}
	// Ldexp overflows to +Inf past attempt ~1075 (and a poisoned BaseSec can
	// yield NaN); the inverted comparison clamps every non-finite value to the
	// cap, so the delay handed to the event clock is always finite.
	d := math.Ldexp(b.BaseSec, attempt-1) // base * 2^(attempt-1)
	if !(d < b.CapSec) {
		d = b.CapSec
	}
	return d, true
}

// Kind classifies what a model's clock firings do to a server. The engine
// dispatches on it: crash evicts everything immediately, degrade only slows
// the server down, drain stops intake and powers off once the server runs dry.
type Kind uint8

const (
	// KindCrash kills the server at once: running and queued jobs are evicted
	// through the retry policy, capacity comes back only at repair.
	KindCrash Kind = iota
	// KindDegrade leaves the server up but multiplies its effective speed by
	// the model's factor (fail-slow); the matching repair restores full speed.
	KindDegrade
	// KindDrain starts a planned maintenance window: the server stops
	// accepting work, migrates its queue, finishes its running jobs, then
	// powers off gracefully until the window elapses.
	KindDrain
)

// Domain groups Count contiguous server IDs into one failure domain (a rack
// or availability zone). Domains partition the cluster in declaration order,
// exactly like cluster.Config.Classes partitions it into server classes.
type Domain struct {
	// Name labels the domain in diagnostics (may be empty).
	Name string
	// Count is the number of consecutive servers in the domain.
	Count int
}

// ValidateDomains checks that domains partition exactly m servers.
func ValidateDomains(domains []Domain, m int) error {
	if len(domains) == 0 {
		return fmt.Errorf("fault: no failure domains declared")
	}
	total := 0
	for i, d := range domains {
		if d.Count <= 0 {
			return fmt.Errorf("fault: domain %d (%q) has non-positive count %d", i, d.Name, d.Count)
		}
		total += d.Count
	}
	if total != m {
		return fmt.Errorf("fault: domain counts sum to %d, want M=%d", total, m)
	}
	return nil
}

// EqualDomains partitions m servers into n equal contiguous domains (the
// first m%n domains absorb the remainder), named "dom0".."domN-1".
func EqualDomains(n, m int) []Domain {
	if n <= 0 || n > m {
		n = 1
	}
	out := make([]Domain, n)
	base, rem := m/n, m%n
	for i := range out {
		out[i] = Domain{Name: fmt.Sprintf("dom%d", i), Count: base}
		if i < rem {
			out[i].Count++
		}
	}
	return out
}

// CorrelatedCrash is the built-in "correlated-crash" model: whole failure
// domains crash and repair together. Every member of a domain receives its
// own replica of one domain-level RNG chain — a two-level splitmix64 chain
// seeded from (run seed, domain index), the same discipline the workload
// subsystem uses for component isolation. Because the engine calls
// NextFailure/NextRepair in strict alternation per server, and all members
// start up together at t=0, the replicas stay in perpetual lockstep: the
// whole domain goes down and comes back at identical instants, with zero
// cross-server draws.
type CorrelatedCrash struct {
	domSeed    int64
	domainOf   []int32
	mttf, mttr float64
}

// NewCorrelatedCrash builds a domain-correlated crash/repair model over m
// servers. The domain counts must sum to m.
func NewCorrelatedCrash(seed int64, domains []Domain, m int, mttfSec, mttrSec float64) (*CorrelatedCrash, error) {
	if err := ValidateDomains(domains, m); err != nil {
		return nil, err
	}
	if !(mttfSec > 0) || math.IsInf(mttfSec, 1) {
		return nil, fmt.Errorf("fault: MTTF %v must be positive and finite", mttfSec)
	}
	if !(mttrSec > 0) || math.IsInf(mttrSec, 1) {
		return nil, fmt.Errorf("fault: MTTR %v must be positive and finite", mttrSec)
	}
	domainOf := make([]int32, 0, m)
	for g, d := range domains {
		for i := 0; i < d.Count; i++ {
			domainOf = append(domainOf, int32(g))
		}
	}
	return &CorrelatedCrash{
		// Level 1 separates the domain-chain channel from the per-server
		// channel plain ExpCrash draws from; level 2 (in ClockFor) separates
		// the domains from each other.
		domSeed:  chainSeed(seed, 1),
		domainOf: domainOf,
		mttf:     mttfSec,
		mttr:     mttrSec,
	}, nil
}

// ClockFor returns server serverID's clock. All members of a domain share
// one chain seed, so each holds an identical private replay of the domain
// schedule.
func (m *CorrelatedCrash) ClockFor(serverID int) Clock {
	g := int(m.domainOf[serverID])
	return &expClock{
		rng:      mat.NewRNG(chainSeed(m.domSeed, g)),
		failRate: 1 / m.mttf,
		repRate:  1 / m.mttr,
	}
}

// FailSlow is the built-in "degrade" model: servers never die, they slow
// down. A firing multiplies the server's effective speed by the degrade
// factor (jobs started while degraded stretch by its inverse); the matching
// repair restores full speed. Chains are per-server, exactly like ExpCrash.
// The factor itself is the session's to apply: NewFailSlow only checks it.
type FailSlow struct {
	seed       int64
	mttd, mttr float64
}

// NewFailSlow builds a fail-slow model: factor is the degraded speed
// multiplier in (0, 1), mttdSec the mean time to degrade, mttrSec the mean
// degraded-window length.
func NewFailSlow(seed int64, factor, mttdSec, mttrSec float64) (*FailSlow, error) {
	if !(factor > 0 && factor < 1) {
		return nil, fmt.Errorf("fault: degrade factor %v must be in (0, 1)", factor)
	}
	if !(mttdSec > 0) || math.IsInf(mttdSec, 1) {
		return nil, fmt.Errorf("fault: MTTF %v must be positive and finite", mttdSec)
	}
	if !(mttrSec > 0) || math.IsInf(mttrSec, 1) {
		return nil, fmt.Errorf("fault: MTTR %v must be positive and finite", mttrSec)
	}
	return &FailSlow{seed: seed, mttd: mttdSec, mttr: mttrSec}, nil
}

// ClockFor returns server serverID's clock: NextFailure is the time to the
// next degrade onset, NextRepair the degraded-window length.
func (m *FailSlow) ClockFor(serverID int) Clock {
	return &expClock{
		rng:      mat.NewRNG(chainSeed(m.seed, serverID)),
		failRate: 1 / m.mttd,
		repRate:  1 / m.mttr,
	}
}

// MaintenanceDrain is the built-in "maintenance-drain" model: planned,
// RNG-free windows. Server i's first window opens everySec*(1 + i/m) after
// t=0 — an even stagger across one period so the fleet never drains at once —
// and each later window opens everySec after the previous rejoin. The window
// lasts windowSec measured from the graceful power-off.
type MaintenanceDrain struct {
	everySec, windowSec float64
	m                   int
}

// NewMaintenanceDrain builds a planned-maintenance model over m servers.
func NewMaintenanceDrain(everySec, windowSec float64, m int) (*MaintenanceDrain, error) {
	if !(everySec > 0) || math.IsInf(everySec, 1) {
		return nil, fmt.Errorf("fault: drain period %v must be positive and finite", everySec)
	}
	if !(windowSec > 0) || math.IsInf(windowSec, 1) {
		return nil, fmt.Errorf("fault: drain window %v must be positive and finite", windowSec)
	}
	if m <= 0 {
		return nil, fmt.Errorf("fault: drain model needs a positive cluster size, got %d", m)
	}
	return &MaintenanceDrain{everySec: everySec, windowSec: windowSec, m: m}, nil
}

// ClockFor returns server serverID's staggered maintenance schedule.
func (m *MaintenanceDrain) ClockFor(serverID int) Clock {
	return &drainClock{
		period: m.everySec,
		window: m.windowSec,
		offset: m.everySec * float64(serverID) / float64(m.m),
	}
}

// drainClock is the deterministic maintenance schedule: no RNG at all, just
// the stagger offset folded into the first draw.
type drainClock struct {
	period, window, offset float64
	fired                  bool
}

func (c *drainClock) NextFailure() float64 {
	if !c.fired {
		c.fired = true
		return c.period + c.offset
	}
	return c.period
}

func (c *drainClock) NextRepair() float64 { return c.window }

// DropAfter is the built-in "drop-after" retry policy: up to Max immediate
// requeues, then the job is counted lost.
type DropAfter struct {
	Max int
}

// Retry implements RetryPolicy.
func (d DropAfter) Retry(now float64, j trace.Job, attempt int) (float64, bool) {
	return 0, attempt <= d.Max
}
