// Package fault implements the deterministic failure/repair subsystem:
// per-server fault clocks plus the retry policy that decides what happens
// to jobs a crash interrupts. Both are closed sets held as values: two
// clock constructors (ExpClocks for exp-crash, correlated-crash and
// degrade; DrainClocks for maintenance-drain) and one Retry whose fields
// select immediate, backoff or drop-after.
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

// Retry decides an interrupted job's fate. The zero value is "immediate"
// (requeue at the crash instant, no attempt cap), Retry{Max: n} is
// "drop-after" (up to n immediate requeues) and NewBackoff builds "backoff"
// (capped exponential delays, optionally capped in attempts too).
type Retry struct {
	BaseSec float64 // first backoff delay; 0 requeues at once
	CapSec  float64 // largest backoff delay
	Max     int     // interruptions a job survives; 0 = unlimited
}

// NewBackoff validates and builds a capped exponential backoff policy.
func NewBackoff(baseSec, capSec float64, max int) (Retry, error) {
	if !(baseSec > 0) || math.IsInf(baseSec, 1) {
		return Retry{}, fmt.Errorf("fault: backoff base %v must be positive and finite", baseSec)
	}
	if !(capSec >= baseSec) || math.IsInf(capSec, 1) {
		return Retry{}, fmt.Errorf("fault: backoff cap %v must be finite and >= base %v", capSec, baseSec)
	}
	if max < 0 {
		return Retry{}, fmt.Errorf("fault: backoff max %d must be non-negative", max)
	}
	return Retry{BaseSec: baseSec, CapSec: capSec, Max: max}, nil
}

// Delay is consulted on the attempt-th interruption of a job (attempt counts
// from 1 across the job's lifetime, surviving multiple crashes): it returns
// the requeue delay in seconds and whether to retry at all — false drops
// the job as lost. Attempt k waits min(BaseSec * 2^(k-1), CapSec), which is
// 0 for the zero BaseSec and CapSec.
func (r Retry) Delay(attempt int) (delaySec float64, retry bool) {
	if r.Max > 0 && attempt > r.Max {
		return 0, false
	}
	// Ldexp overflows to +Inf past attempt ~1075 (and a poisoned BaseSec can
	// yield NaN); the inverted comparison clamps every non-finite value to the
	// cap, so the delay handed to the event clock is always finite.
	d := math.Ldexp(r.BaseSec, attempt-1) // base * 2^(attempt-1)
	if !(d < r.CapSec) {
		d = r.CapSec
	}
	return d, true
}

// chainSeed mixes the run seed and a server ID into one well-separated seed
// through the splitmix64 finalizer. Adjacent server IDs — and adjacent run
// seeds — land in unrelated regions of the generator's state space, so
// per-server chains are statistically independent. It mixes its input
// differently from the workload generator's chainSeed, so a run's fault and
// workload chains draw from different streams.
func chainSeed(seed int64, serverID int) int64 {
	return int64(mat.SplitMix(uint64(seed)*mat.Golden + uint64(serverID+1)*0xBF58476D1CE4E5B9))
}

// ExpClocks builds the exponential clocks: i.i.d. exponential time to
// failure (mean mttfSec) and to repair (mean mttrSec), the textbook
// Markovian machine-repair model. Under the degrade model the same draws are
// the time to a slowdown and the slowdown's length.
//
// With nil domains every server gets its own chain seeded from (run seed,
// server ID): the "exp-crash" and "degrade" models. Otherwise domains must
// partition the m servers, and every member of a domain gets its own replica
// of one domain-level chain — a two-level splitmix64 chain seeded from (run
// seed, domain index), the same discipline the workload subsystem uses for
// component isolation. That is "correlated-crash": because the engine calls
// NextFailure/NextRepair in strict alternation per server, and all members
// start up together at t=0, the replicas stay in perpetual lockstep, so the
// whole domain goes down and comes back at identical instants with zero
// cross-server draws.
func ExpClocks(seed int64, mttfSec, mttrSec float64, domains []Domain, m int) (func(serverID int) Clock, error) {
	if domains != nil {
		if err := ValidateDomains(domains, m); err != nil {
			return nil, err
		}
	}
	if !(mttfSec > 0) || math.IsInf(mttfSec, 1) {
		return nil, fmt.Errorf("fault: MTTF %v must be positive and finite", mttfSec)
	}
	if !(mttrSec > 0) || math.IsInf(mttrSec, 1) {
		return nil, fmt.Errorf("fault: MTTR %v must be positive and finite", mttrSec)
	}
	failRate, repRate := 1/mttfSec, 1/mttrSec
	if domains == nil {
		return func(serverID int) Clock {
			return &expClock{rng: mat.NewRNG(chainSeed(seed, serverID)), failRate: failRate, repRate: repRate}
		}, nil
	}
	domainOf := make([]int32, 0, m)
	for g, d := range domains {
		for i := 0; i < d.Count; i++ {
			domainOf = append(domainOf, int32(g))
		}
	}
	// Level 1 separates the domain-chain channel from the per-server
	// channel; level 2 separates the domains from each other.
	domSeed := chainSeed(seed, 1)
	return func(serverID int) Clock {
		g := int(domainOf[serverID])
		return &expClock{rng: mat.NewRNG(chainSeed(domSeed, g)), failRate: failRate, repRate: repRate}
	}, nil
}

type expClock struct {
	rng      *mat.RNG
	failRate float64
	repRate  float64
}

func (c *expClock) NextFailure() float64 { return c.rng.Exponential(c.failRate) }
func (c *expClock) NextRepair() float64  { return c.rng.Exponential(c.repRate) }

// DrainClocks builds the "maintenance-drain" clocks over m servers: planned,
// RNG-free windows. Server i's first window opens everySec*(1 + i/m) after
// t=0 — an even stagger across one period so the fleet never drains at once —
// and each later window opens everySec after the previous rejoin. The window
// lasts windowSec measured from the graceful power-off.
func DrainClocks(everySec, windowSec float64, m int) (func(serverID int) Clock, error) {
	if !(everySec > 0) || math.IsInf(everySec, 1) {
		return nil, fmt.Errorf("fault: drain period %v must be positive and finite", everySec)
	}
	if !(windowSec > 0) || math.IsInf(windowSec, 1) {
		return nil, fmt.Errorf("fault: drain window %v must be positive and finite", windowSec)
	}
	if m <= 0 {
		return nil, fmt.Errorf("fault: drain model needs a positive cluster size, got %d", m)
	}
	return func(serverID int) Clock {
		return &drainClock{period: everySec, window: windowSec, offset: everySec * float64(serverID) / float64(m)}
	}, nil
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
