package local

import (
	"fmt"
	"math"

	"hierdrl/internal/cluster"
	"hierdrl/internal/lstm"
	"hierdrl/internal/mat"
	"hierdrl/internal/rl"
	"hierdrl/internal/sim"
)

// RLConfig configures the RL-based power manager (Algorithm 2).
type RLConfig struct {
	// Timeouts is the action set A: candidate idle timeouts in seconds,
	// including 0 for immediate shutdown (Sec. VI-B).
	Timeouts []float64
	// Alpha is the Q-learning rate.
	Alpha float64
	// Beta is the continuous-time discount rate of Eqn. (2).
	Beta float64
	// Epsilon / EpsilonMin / EpsilonDecay drive epsilon-greedy exploration.
	Epsilon      float64
	EpsilonMin   float64
	EpsilonDecay float64
	// PowerWeight is w in Eqn. (5): r(t) = -w*P(t) - (1-w)*JQ(t). Sweeping
	// it traces the Fig. 10 power/latency trade-off curve.
	PowerWeight float64
	// PowerNormW scales watts into the same magnitude band as queue
	// lengths before they enter the reward (P(t)/PowerNormW is ~[0,1]).
	PowerNormW float64
	// PredictorBounds discretizes the inter-arrival prediction into RL
	// state categories.
	PredictorBounds []float64
	// OptimisticInit is the initial Q value for unseen state-action pairs.
	OptimisticInit float64
}

// DefaultRLConfig returns the calibration used throughout the evaluation.
//
// Note on Beta: the paper quotes beta = 0.5 for its (global-tier) Q-learning.
// A 0.5/s discount rate has a ~2 s effective horizon — far shorter than the
// 30 s Ton/Toff transitions — which makes a sleeping server's power savings
// invisible to the learner. The local tier therefore defaults to beta =
// 0.01/s (~100 s horizon, spanning a full sleep/wake cycle); DESIGN.md
// records this calibration decision.
func DefaultRLConfig() RLConfig {
	return RLConfig{
		Timeouts:        []float64{0, 15, 30, 60, 90, 120},
		Alpha:           0.1,
		Beta:            0.01,
		Epsilon:         0.3,
		EpsilonMin:      0.02,
		EpsilonDecay:    0.999,
		PowerWeight:     0.5,
		PowerNormW:      145,
		PredictorBounds: []float64{15, 30, 60, 90, 120, 300},
		OptimisticInit:  0,
	}
}

// Validate reports the first setting NewRLTimeout — or the Q-table, the
// exploration policy, the reward integrator or the discretizer it builds —
// would panic on or silently compute NaNs from. Every comparison is written
// so that a NaN fails it.
func (c RLConfig) Validate() error {
	if len(c.Timeouts) == 0 {
		return fmt.Errorf("local: empty timeout action set")
	}
	for _, to := range c.Timeouts {
		if !(to >= 0) || math.IsInf(to, 1) {
			return fmt.Errorf("local: invalid timeout action %v", to)
		}
	}
	switch {
	case !(c.Alpha > 0 && c.Alpha <= 1):
		return fmt.Errorf("local: invalid alpha %v", c.Alpha)
	case !(c.Beta > 0) || math.IsInf(c.Beta, 1):
		return fmt.Errorf("local: invalid beta %v", c.Beta)
	case !(c.Epsilon >= 0 && c.Epsilon <= 1) || !(c.EpsilonMin >= 0 && c.EpsilonMin <= c.Epsilon) ||
		!(c.EpsilonDecay > 0 && c.EpsilonDecay <= 1):
		return fmt.Errorf("local: invalid exploration schedule epsilon=%v min=%v decay=%v (want 0 <= min <= epsilon <= 1, 0 < decay <= 1)",
			c.Epsilon, c.EpsilonMin, c.EpsilonDecay)
	case !(c.PowerWeight >= 0 && c.PowerWeight <= 1):
		return fmt.Errorf("local: PowerWeight %v outside [0,1]", c.PowerWeight)
	case !(c.PowerNormW > 0) || math.IsInf(c.PowerNormW, 1):
		return fmt.Errorf("local: PowerNormW must be finite and positive, got %v", c.PowerNormW)
	case math.IsNaN(c.OptimisticInit) || math.IsInf(c.OptimisticInit, 0):
		return fmt.Errorf("local: OptimisticInit must be finite, got %v", c.OptimisticInit)
	}
	for i, b := range c.PredictorBounds {
		if math.IsNaN(b) || math.IsInf(b, 0) || (i > 0 && !(b > c.PredictorBounds[i-1])) {
			return fmt.Errorf("local: PredictorBounds must be finite and strictly increasing, got %v", c.PredictorBounds)
		}
	}
	return nil
}

// RLTimeout is the paper's local-tier power manager: at every case-(1)
// decision epoch (server idle, queue empty) it selects a timeout from the
// action set with epsilon-greedy Q-learning for SMDP. The sojourn of one
// decision runs until the *next* case-(1) epoch, and the Eqn. (5) reward
// rate is integrated exactly over everything that happens in between
// (timeout wait, shutdown, sleep, wake, busy period) — so a bad timeout that
// causes a wake-up delay is charged for the queue it builds.
type RLTimeout struct {
	cfg   RLConfig
	table *rl.QTable
	eps   *rl.EpsilonGreedy
	pred  ArrivalPredictor
	disc  *lstm.Discretizer
	integ *rl.RewardIntegrator

	lastPower float64
	lastJQ    int

	hasPending    bool
	pendingState  int
	pendingAction int

	decisions int64
	updates   int64
}

// NewRLTimeout builds the power manager. pred supplies inter-arrival
// forecasts; pass an lstm.Predictor for the paper's configuration or one of
// the baseline predictors for ablations.
func NewRLTimeout(cfg RLConfig, pred ArrivalPredictor, rng *mat.RNG) (*RLTimeout, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if pred == nil {
		return nil, fmt.Errorf("local: nil predictor")
	}
	disc := lstm.NewDiscretizer(cfg.PredictorBounds)
	return &RLTimeout{
		cfg:   cfg,
		table: rl.NewQTable(disc.NumCategories(), len(cfg.Timeouts), cfg.Alpha, cfg.Beta, cfg.OptimisticInit),
		eps:   rl.NewEpsilonGreedy(cfg.Epsilon, cfg.EpsilonMin, cfg.EpsilonDecay, rng),
		pred:  pred,
		disc:  disc,
		integ: rl.NewRewardIntegrator(cfg.Beta),
	}, nil
}

// rewardRate computes Eqn. (5) from the latest observation.
func (m *RLTimeout) rewardRate() float64 {
	w := m.cfg.PowerWeight
	return -(w*m.lastPower/m.cfg.PowerNormW + (1-w)*float64(m.lastJQ))
}

// OnIdle implements cluster.DPMPolicy — decision-epoch case (1). The power
// manager acts only when the machine is idle with an empty queue, so the RL
// state is the predicted next inter-arrival category (Sec. VI-B state
// parameters), one of the table's disc.NumCategories() rows for every
// prediction, NaN and +Inf included.
func (m *RLTimeout) OnIdle(t sim.Time, _ *cluster.Server) float64 {
	state := m.disc.Categorize(m.pred.Predict())
	// Close the previous sojourn with the exact discounted reward.
	if m.hasPending {
		rEq, tau := m.integ.EquivalentRate(t.Seconds())
		m.table.Update(m.pendingState, m.pendingAction, rEq, tau, state)
		m.updates++
	}
	best, _ := m.table.Best(state)
	action := m.eps.SelectAction(len(m.cfg.Timeouts), best)
	m.pendingState = state
	m.pendingAction = action
	m.hasPending = true
	m.integ.Reset(t.Seconds(), m.rewardRate())
	m.decisions++
	return m.cfg.Timeouts[action]
}

// OnArrival implements cluster.DPMPolicy — decision-epoch cases (2) and (3).
// Per the paper these epochs have a single available action, so no Q update
// happens here; the open sojourn simply keeps integrating reward until the
// next case-(1) epoch. The arrival always feeds the workload predictor.
func (m *RLTimeout) OnArrival(t sim.Time, _ *cluster.Server, _ cluster.PowerState) {
	m.pred.ObserveArrival(t.Seconds())
}

// Observe implements cluster.DPMPolicy: stream the reward-rate inputs.
func (m *RLTimeout) Observe(t sim.Time, powerW float64, jobsInSystem int) {
	m.lastPower = powerW
	m.lastJQ = jobsInSystem
	if m.integ.Started() {
		m.integ.SetRate(t.Seconds(), m.rewardRate())
	}
}

// LatestInstant implements cluster.InstantRecorder: the later of the open
// sojourn's integration point and the predictor's last arrival (when the
// predictor reports one), -Inf when neither has been recorded.
func (m *RLTimeout) LatestInstant() float64 {
	at := math.Inf(-1)
	if m.integ.Started() {
		at = m.integ.Last()
	}
	if p, ok := m.pred.(interface{ LastArrival() float64 }); ok {
		if a := p.LastArrival(); a > at { // NaN: no arrival yet
			at = a
		}
	}
	return at
}

// Join waits for the predictor's training round in flight, if the predictor
// trains off the caller's goroutine (lstm.Predictor.Join); the session joins
// every power manager on Close.
func (m *RLTimeout) Join() {
	if p, ok := m.pred.(interface{ Join() }); ok {
		p.Join()
	}
}

// FreezePolicy disables exploration (evaluation mode).
func (m *RLTimeout) FreezePolicy() { m.eps.SetEpsilon(0) }

// Decisions returns the number of case-(1) epochs seen.
func (m *RLTimeout) Decisions() int64 { return m.decisions }

// Updates returns the number of Q updates applied.
func (m *RLTimeout) Updates() int64 { return m.updates }

var (
	_ cluster.DPMPolicy       = (*RLTimeout)(nil)
	_ cluster.InstantRecorder = (*RLTimeout)(nil)
)
