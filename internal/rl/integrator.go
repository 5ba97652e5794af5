package rl

import (
	"fmt"
	"math"
)

// RewardIntegrator accumulates the exactly-discounted integral of a
// piecewise-constant reward rate:
//
//	I(t) = ∫_{t0}^{t} e^{-beta (u - t0)} r(u) du
//
// Eqn. (2) of the paper assumes the reward rate is constant over the sojourn
// between two decision epochs. In the simulated cluster the rate (power
// draw, queue length) changes at every event inside the sojourn, so both
// tiers feed their reward signals through this integrator and then extract
// the *equivalent constant rate* — the unique constant rate that produces
// the same discounted integral over the sojourn — which makes the Eqn. (2)
// update exact.
type RewardIntegrator struct {
	beta float64

	started  bool
	t0       float64
	last     float64
	rate     float64
	integral float64
}

// NewRewardIntegrator returns an integrator with discount rate beta >= 0.
func NewRewardIntegrator(beta float64) *RewardIntegrator {
	if beta < 0 {
		panic(fmt.Sprintf("rl: NewRewardIntegrator negative beta %v", beta))
	}
	return &RewardIntegrator{beta: beta}
}

// Reset starts a new sojourn at time t with the given initial reward rate.
func (ri *RewardIntegrator) Reset(t, rate float64) {
	ri.started = true
	ri.t0 = t
	ri.last = t
	ri.rate = rate
	ri.integral = 0
}

// Started reports whether Reset has been called.
func (ri *RewardIntegrator) Started() bool { return ri.started }

// SetRate records that the reward rate changed to rate at time t. Calls must
// be non-decreasing in t.
func (ri *RewardIntegrator) SetRate(t, rate float64) {
	ri.advance(t)
	ri.rate = rate
}

// advance integrates the current constant piece up to time t.
func (ri *RewardIntegrator) advance(t float64) {
	if !ri.started {
		panic("rl: RewardIntegrator used before Reset")
	}
	if t < ri.last-1e-9 {
		panic(fmt.Sprintf("rl: RewardIntegrator time went backwards: %v < %v", t, ri.last))
	}
	if t <= ri.last {
		return
	}
	dt := t - ri.last
	if ri.beta <= 1e-12 {
		ri.integral += ri.rate * dt
	} else {
		// ∫_{last}^{t} e^{-beta(u-t0)} du = e^{-beta(last-t0)} (1-e^{-beta dt})/beta
		ri.integral += ri.rate * math.Exp(-ri.beta*(ri.last-ri.t0)) *
			(1 - math.Exp(-ri.beta*dt)) / ri.beta
	}
	ri.last = t
}

// EquivalentRate closes the sojourn at time t and returns (rEq, tau): the
// constant reward rate and sojourn length such that
// SojournGain(beta,tau)*rEq equals the exact discounted integral. For an
// empty sojourn (tau == 0) it returns the current instantaneous rate.
func (ri *RewardIntegrator) EquivalentRate(t float64) (rEq, tau float64) {
	ri.advance(t)
	tau = ri.last - ri.t0
	if tau <= 0 {
		return ri.rate, 0
	}
	gain := SojournGain(ri.beta, tau)
	return ri.integral / gain, tau
}

// Last returns the instant the integral has been advanced to (the sojourn's
// start right after Reset).
func (ri *RewardIntegrator) Last() float64 { return ri.last }
