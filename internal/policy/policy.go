// Package policy defines the job-broker allocation interface shared by the
// global DRL tier and the baselines the paper compares against: round-robin
// (the evaluation's main baseline), random, greedy least-loaded, and a
// power-aware packing heuristic (also used as the behaviour policy that
// seeds the DRL agent's experience memory).
package policy

import (
	"fmt"

	"hierdrl/internal/cluster"
	"hierdrl/internal/mat"
	"hierdrl/internal/trace"
)

// Allocator picks the target server for each arriving job — the action of
// the paper's global tier, taken at every job-arrival decision epoch.
type Allocator interface {
	// Allocate returns the server index in [0, v.M) for job j.
	Allocate(j *cluster.Job, v *cluster.View) int
}

// RoundRobin dispatches jobs to servers in cyclic order — the paper's
// baseline. It spreads load evenly, which minimizes queueing but keeps every
// server powered.
type RoundRobin struct {
	next int
}

// NewRoundRobin returns a round-robin allocator.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Allocate implements Allocator.
func (r *RoundRobin) Allocate(_ *cluster.Job, v *cluster.View) int {
	s := r.next % v.M
	r.next = (s + 1) % v.M
	return s
}

// Random dispatches uniformly at random.
type Random struct {
	rng *mat.RNG
}

// NewRandom returns a random allocator.
func NewRandom(rng *mat.RNG) *Random { return &Random{rng: rng} }

// Allocate implements Allocator.
func (r *Random) Allocate(_ *cluster.Job, v *cluster.View) int {
	return r.rng.Intn(v.M)
}

// LeastLoaded dispatches to the server whose binding dimension (running plus
// queued demand) is smallest — a latency-greedy policy.
type LeastLoaded struct{}

// NewLeastLoaded returns a least-loaded allocator.
func NewLeastLoaded() *LeastLoaded { return &LeastLoaded{} }

// Allocate implements Allocator. Down servers are skipped, which matches
// the LoadIndex fast path bit for bit without a drain model: there a down
// server reports CommittedLoad = +Inf and loses every tournament, so both
// paths consider the same finite candidates in the same order. The View has
// no draining flag, so under a drain model this scan can pick a draining
// server (the session remaps it through Cluster.NextUp), which the index
// scores +Inf.
func (*LeastLoaded) Allocate(_ *cluster.Job, v *cluster.View) int {
	best, bestLoad := 0, 2.0
	for i := 0; i < v.M; i++ {
		if v.State[i] == cluster.StateDown {
			continue
		}
		load := v.Util[i].Add(v.Pending[i]).MaxFrac()
		if load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}

// PackFit consolidates: it picks the awake server with the highest CPU
// utilization whose remaining capacity (counting queued demand) still fits
// the job, waking a sleeping server only when no awake server fits. This is
// the power-aware heuristic used to seed the DRL experience memory.
type PackFit struct {
	// Headroom is capacity deliberately left free per dimension to avoid
	// hot spots (default 0.05).
	Headroom float64
}

// NewPackFit returns a consolidating allocator.
func NewPackFit(headroom float64) (*PackFit, error) {
	if headroom < 0 || headroom >= 1 {
		return nil, fmt.Errorf("policy: headroom %v outside [0,1)", headroom)
	}
	return &PackFit{Headroom: headroom}, nil
}

// Allocate implements Allocator.
func (p *PackFit) Allocate(j *cluster.Job, v *cluster.View) int {
	limit := 1 - p.Headroom
	best := -1
	bestUtil := -1.0
	for i := 0; i < v.M; i++ {
		if v.State[i] == cluster.StateSleep || v.State[i] == cluster.StateShuttingDown ||
			v.State[i] == cluster.StateDown {
			continue
		}
		total := v.Util[i].Add(v.Pending[i]).Add(j.Req)
		fits := true
		for _, x := range total {
			if x > limit {
				fits = false
				break
			}
		}
		if !fits {
			continue
		}
		if u := v.Util[i][trace.CPU]; u > bestUtil {
			best, bestUtil = i, u
		}
	}
	if best >= 0 {
		return best
	}
	// Wake the first sleeping/least-burdened server.
	best, bestLoad := 0, 1e18
	for i := 0; i < v.M; i++ {
		if v.State[i] == cluster.StateDown {
			continue
		}
		load := v.Util[i].Add(v.Pending[i]).MaxFrac()
		if v.State[i] == cluster.StateSleep {
			load -= 1 // prefer fully sleeping machines for a clean start
		}
		if load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}

var (
	_ Allocator = (*RoundRobin)(nil)
	_ Allocator = (*Random)(nil)
	_ Allocator = (*LeastLoaded)(nil)
	_ Allocator = (*PackFit)(nil)
)
