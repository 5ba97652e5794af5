// Package local implements the local tier of the hierarchical framework
// (Sec. VI): per-server dynamic power management. The centerpiece is
// RLTimeout — the paper's model-free continuous-time Q-learning power
// manager driven by an LSTM workload predictor — plus the fixed-timeout
// family the evaluation compares it against: FixedTimeout (the Fig. 10
// baselines with 30/60/90 s timeouts) and its two ends, AlwaysOn (timeout
// +Inf: round-robin baseline servers never sleep) and AdHoc (timeout 0:
// immediate sleep, Fig. 4(a), used by the "DRL-only" comparator).
package local

import (
	"fmt"
	"math"

	"hierdrl/internal/cluster"
	"hierdrl/internal/sim"
)

// AlwaysOn keeps the server active forever (no power management), and AdHoc
// sleeps the instant the server goes idle — the wasteful behaviour of
// Fig. 4(a) that the local tier is designed to beat. Both are held as
// interface values so every server shares one boxed FixedTimeout.
var (
	AlwaysOn cluster.DPMPolicy = FixedTimeout{TimeoutSec: math.Inf(1)}
	AdHoc    cluster.DPMPolicy = FixedTimeout{}
)

// FixedTimeout sleeps after a constant idle timeout (the Fig. 10 baselines
// use 30, 60 and 90 seconds).
type FixedTimeout struct {
	TimeoutSec float64
}

// NewFixedTimeout returns a fixed-timeout policy. timeoutSec must be >= 0.
func NewFixedTimeout(timeoutSec float64) FixedTimeout {
	if timeoutSec < 0 || math.IsNaN(timeoutSec) {
		panic(fmt.Sprintf("local: invalid fixed timeout %v", timeoutSec))
	}
	return FixedTimeout{TimeoutSec: timeoutSec}
}

// OnIdle implements cluster.DPMPolicy.
func (f FixedTimeout) OnIdle(sim.Time, *cluster.Server) float64 { return f.TimeoutSec }

// OnArrival implements cluster.DPMPolicy.
func (f FixedTimeout) OnArrival(sim.Time, *cluster.Server, cluster.PowerState) {}

// Observe implements cluster.DPMPolicy.
func (f FixedTimeout) Observe(sim.Time, float64, int) {}
