package local

import (
	"hierdrl/internal/checkpoint"
)

// CheckpointStateless marks the fixed-timeout family: its behavior is a pure
// function of the timeout, so a snapshot records nothing.
func (FixedTimeout) CheckpointStateless() {}

// State implements checkpoint.Stateful: the learned Q-table, the epsilon
// schedule and its RNG, the open sojourn, and the nested arrival predictor
// (which must itself be checkpointable).
func (m *RLTimeout) State(c *checkpoint.Codec) {
	m.table.State(c)
	m.eps.State(c)
	c.RNG(m.eps.RNG())
	m.integ.State(c)
	c.F64(&m.lastPower)
	c.Int(&m.lastJQ)
	c.Bool(&m.hasPending)
	c.Str(&m.pendingState)
	c.Int(&m.pendingAction)
	c.I64(&m.decisions)
	c.I64(&m.updates)
	c.Component(m.pred)
}

// State implements checkpoint.Stateful.
func (p *LastValue) State(c *checkpoint.Codec) {
	c.F64(&p.last)
	c.F64(&p.lastGap)
	c.Int(&p.seen)
}

// State implements checkpoint.Stateful.
func (p *EWMA) State(c *checkpoint.Codec) {
	c.F64(&p.last)
	c.F64(&p.est)
	c.Int(&p.seen)
}

// State implements checkpoint.Stateful.
func (p *WindowMean) State(c *checkpoint.Codec) {
	c.F64s(&p.window)
	c.F64(&p.last)
}

var (
	_ checkpoint.Stateless = FixedTimeout{}
	_ checkpoint.Stateful  = (*RLTimeout)(nil)
	_ checkpoint.Stateful  = (*LastValue)(nil)
	_ checkpoint.Stateful  = (*EWMA)(nil)
	_ checkpoint.Stateful  = (*WindowMean)(nil)
)
