// Package rl provides the reinforcement-learning machinery shared by both
// tiers of the hierarchical framework: continuous-time Q-learning for
// semi-Markov decision processes (paper Eqn. 2), epsilon-greedy exploration,
// a bounded experience-replay memory, and an exact discounted reward-rate
// integrator for piecewise-constant reward processes.
package rl

import (
	"fmt"
	"math"
)

// DiscountFactor computes e^{-beta*tau}, the continuous-time discount over a
// sojourn of tau seconds.
func DiscountFactor(beta, tau float64) float64 {
	if tau < 0 {
		panic(fmt.Sprintf("rl: negative sojourn time %v", tau))
	}
	return math.Exp(-beta * tau)
}

// SojournGain computes (1 - e^{-beta*tau})/beta, the integral of the
// discount kernel over the sojourn — the factor multiplying the constant
// reward rate in Eqn. (2). For beta -> 0 it degrades gracefully to tau.
func SojournGain(beta, tau float64) float64 {
	if tau < 0 {
		panic(fmt.Sprintf("rl: negative sojourn time %v", tau))
	}
	if beta <= 1e-12 {
		return tau
	}
	return (1 - math.Exp(-beta*tau)) / beta
}

// SMDPTarget computes the Q-learning target for SMDP:
//
//	y = (1 - e^{-beta*tau})/beta * rRate + e^{-beta*tau} * nextBest
//
// where rRate is the (equivalent constant) reward rate over the sojourn tau
// and nextBest is max_a' Q(s', a'). Both tiers and the deep global tier use
// this single definition so the semantics cannot drift apart.
func SMDPTarget(beta, tau, rRate, nextBest float64) float64 {
	return SojournGain(beta, tau)*rRate + DiscountFactor(beta, tau)*nextBest
}

// QTable is a tabular continuous-time Q-learning agent over a finite state
// set and a finite action set, stored densely: Q(s, a) is q[s*nActions+a].
// The zero value is not usable; construct with NewQTable.
type QTable struct {
	nActions int
	alpha    float64
	beta     float64

	q      []float64
	visits []int
}

// NewQTable returns a Q-table for nStates states and nActions actions with
// learning rate alpha and discount rate beta. Every Q-value starts at
// optInit, the optimistic initial value (0 is the common choice; the local
// power manager benefits from mildly optimistic initialization).
func NewQTable(nStates, nActions int, alpha, beta, optInit float64) *QTable {
	if nStates <= 0 {
		panic(fmt.Sprintf("rl: NewQTable invalid state count %d", nStates))
	}
	if nActions <= 0 {
		panic(fmt.Sprintf("rl: NewQTable invalid action count %d", nActions))
	}
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("rl: NewQTable invalid learning rate %v", alpha))
	}
	if beta <= 0 {
		panic(fmt.Sprintf("rl: NewQTable invalid discount rate %v", beta))
	}
	q := make([]float64, nStates*nActions)
	for i := range q {
		q[i] = optInit
	}
	return &QTable{
		nActions: nActions,
		alpha:    alpha,
		beta:     beta,
		q:        q,
		visits:   make([]int, nStates*nActions),
	}
}

// NumStates returns the size of the state set.
func (t *QTable) NumStates() int { return len(t.q) / t.nActions }

// row returns state's Q-values, one per action.
func (t *QTable) row(state int) []float64 {
	if state < 0 || state >= t.NumStates() {
		panic(fmt.Sprintf("rl: state %d out of range [0,%d)", state, t.NumStates()))
	}
	return t.q[state*t.nActions : (state+1)*t.nActions]
}

// Best returns the greedy action and its value for state. Ties break toward
// the lowest action index, which keeps runs deterministic.
func (t *QTable) Best(state int) (action int, value float64) {
	row := t.row(state)
	action, value = 0, row[0]
	for a := 1; a < len(row); a++ {
		if row[a] > value {
			action, value = a, row[a]
		}
	}
	return action, value
}

// Update applies the Eqn. (2) value update for a transition that started in
// state with action, accrued the equivalent constant reward rate rRate over
// sojourn tau, and landed in nextState. It returns the TD error.
func (t *QTable) Update(state, action int, rRate, tau float64, nextState int) float64 {
	t.checkAction(action)
	_, nextBest := t.Best(nextState)
	target := SMDPTarget(t.beta, tau, rRate, nextBest)
	row := t.row(state)
	td := target - row[action]
	row[action] += t.alpha * td
	t.visits[state*t.nActions+action]++
	return td
}

func (t *QTable) checkAction(a int) {
	if a < 0 || a >= t.nActions {
		panic(fmt.Sprintf("rl: action %d out of range [0,%d)", a, t.nActions))
	}
}
