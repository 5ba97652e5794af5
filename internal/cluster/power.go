// Package cluster implements the simulated server-cluster environment of the
// paper (Sec. III): M physical servers with active/idle/sleep power modes,
// Ton/Toff mode-transition delays, FCFS queueing with head-of-line blocking,
// the Fan/Weber/Barroso CPU-utilization power model (Eqn. 3), exact energy
// integration, and per-server pluggable dynamic power management policies.
package cluster

import (
	"fmt"
	"math"
)

// PowerModel maps server activity to power draw in watts.
//
// The paper uses P(x) = P(0%) + (P(100%) - P(0%)) (2x - x^1.4) for an active
// server at CPU utilization x (Eqn. 3, from Fan et al.), zero power in
// sleep, and a transition draw above idle while switching modes.
type PowerModel struct {
	// IdleW is P(0%), watts drawn by an active server with no load.
	IdleW float64
	// PeakW is P(100%), watts drawn at full CPU utilization.
	PeakW float64
	// TransitionW is the draw during sleep<->active transitions. The paper
	// notes it exceeds P(0%); we default to PeakW (PowerNap-style worst
	// case).
	TransitionW float64
}

// DefaultPowerModel returns the paper's calibration: P(0%) = 87 W,
// P(100%) = 145 W (Sec. VII-A), transitions at peak power.
func DefaultPowerModel() PowerModel {
	return PowerModel{IdleW: 87, PeakW: 145, TransitionW: 145}
}

// Validate checks the model for consistency. Every draw must be finite: a
// NaN or infinite watt figure would poison the cluster's power aggregate.
func (p PowerModel) Validate() error {
	switch {
	case !finite(p.IdleW) || !finite(p.PeakW) || !finite(p.TransitionW):
		return fmt.Errorf("cluster: power model must be finite, got idle %v peak %v transition %v",
			p.IdleW, p.PeakW, p.TransitionW)
	case p.IdleW < 0:
		return fmt.Errorf("cluster: negative idle power %v", p.IdleW)
	case p.PeakW < p.IdleW:
		return fmt.Errorf("cluster: peak power %v below idle %v", p.PeakW, p.IdleW)
	case p.TransitionW < p.IdleW:
		return fmt.Errorf("cluster: transition power %v below idle %v", p.TransitionW, p.IdleW)
	}
	return nil
}

// Active returns the draw of an active server at CPU utilization x in [0,1]
// per Eqn. (3). Utilization outside [0,1] is clamped.
func (p PowerModel) Active(x float64) float64 {
	if x < 0 {
		x = 0
	} else if x > 1 {
		x = 1
	}
	return p.IdleW + (p.PeakW-p.IdleW)*(2*x-pow14(x))
}

// pow14Frac is the fraction math.Pow splits off y = 1.4: Modf's
// 0.3999999999999999, which the constant expression 1.4-1 would round to 0.4.
var _, pow14Frac = math.Modf(1.4)

// pow14 returns math.Pow(x, 1.4) bit for bit at about half the cost. For
// y = 1.4, math.Pow computes Ldexp(Exp(yf*Log(x))*frac(x), exp(x)) with
// x = frac(x)*2^exp(x); scaling by a power of two is exact while the result
// is normal, so for x >= 2^-600 (x^1.4 >= 2^-840) the plain product
// x*Exp(yf*Log(x)) rounds to the same bits. Smaller x, zero and NaN take
// math.Pow (DESIGN.md §9 "Power curve"; TestPowerCurveMatchesMathPow).
func pow14(x float64) float64 {
	if !(x >= 0x1p-600) {
		return math.Pow(x, 1.4)
	}
	return x * math.Exp(pow14Frac*math.Log(x))
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Sleep returns the draw of a sleeping server (zero, per Sec. III).
func (p PowerModel) Sleep() float64 { return 0 }

// Transition returns the draw during a mode transition.
func (p PowerModel) Transition() float64 { return p.TransitionW }
