package rl

import (
	"fmt"

	"hierdrl/internal/mat"
)

// EpsilonGreedy implements the epsilon-greedy exploration policy with
// multiplicative decay toward a floor: with probability eps a uniformly
// random action is taken, otherwise the greedy action.
type EpsilonGreedy struct {
	eps   float64
	min   float64
	decay float64
	rng   *mat.RNG
}

// NewEpsilonGreedy returns a policy that starts at eps, multiplies eps by
// decay after every SelectAction, and never goes below min. decay == 1
// keeps eps constant.
func NewEpsilonGreedy(eps, min, decay float64, rng *mat.RNG) *EpsilonGreedy {
	if eps < 0 || eps > 1 || min < 0 || min > eps || decay <= 0 || decay > 1 {
		panic(fmt.Sprintf("rl: NewEpsilonGreedy invalid params eps=%v min=%v decay=%v",
			eps, min, decay))
	}
	return &EpsilonGreedy{eps: eps, min: min, decay: decay, rng: rng}
}

// SelectAction returns best, or a uniform action in [0, nActions),
// exploring with the current epsilon. Epsilon decays after each call. The
// greedy action is passed by value, so a decision builds no closure.
func (p *EpsilonGreedy) SelectAction(nActions, best int) int {
	if nActions <= 0 {
		panic("rl: SelectAction requires nActions > 0")
	}
	a := best
	if p.rng.Float64() < p.eps {
		a = p.rng.Intn(nActions)
	}
	p.eps *= p.decay
	if p.eps < p.min {
		p.eps = p.min
	}
	if a < 0 || a >= nActions {
		panic(fmt.Sprintf("rl: greedy chose out-of-range action %d", a))
	}
	return a
}

// Epsilon returns the current exploration rate.
func (p *EpsilonGreedy) Epsilon() float64 { return p.eps }

// SetEpsilon overrides the current exploration rate (e.g., to freeze a
// trained policy for evaluation).
func (p *EpsilonGreedy) SetEpsilon(eps float64) {
	if eps < 0 || eps > 1 {
		panic(fmt.Sprintf("rl: SetEpsilon invalid %v", eps))
	}
	p.eps = eps
	if p.min > eps {
		p.min = eps
	}
}
