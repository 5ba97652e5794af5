package fault

import (
	"hierdrl/internal/checkpoint"
)

// State implements checkpoint.Stateful: the clock is its RNG chain — rates
// are construction config.
func (c *expClock) State(cd *checkpoint.Codec) { cd.RNG(c.rng) }

// State implements checkpoint.Stateful: the maintenance schedule's only
// evolving state is whether the stagger offset has been consumed — period,
// window, and offset are construction config.
func (c *drainClock) State(cd *checkpoint.Codec) { cd.Bool(&c.fired) }

// CheckpointStateless marks the retry policy: a job's fate depends only on
// its attempt count, never on prior calls.
func (Retry) CheckpointStateless() {}

var (
	_ checkpoint.Stateful  = (*expClock)(nil)
	_ checkpoint.Stateful  = (*drainClock)(nil)
	_ checkpoint.Stateless = Retry{}
)
