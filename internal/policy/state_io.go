package policy

import (
	"hierdrl/internal/checkpoint"
)

// State implements checkpoint.Stateful: the cyclic cursor. A negative one is
// corrupt (Allocate would hand the cluster a negative server); one at or
// past M is reduced at the next dispatch.
func (r *RoundRobin) State(c *checkpoint.Codec) {
	c.Int(&r.next)
	if c.Decoding() && c.Err() == nil && r.next < 0 {
		c.Fail(checkpoint.ErrCorrupt, "round-robin cursor %d", r.next)
	}
}

// State implements checkpoint.Stateful: the draw chain.
func (r *Random) State(c *checkpoint.Codec) { c.RNG(r.rng) }

// CheckpointStateless marks the memoryless allocators.
func (*LeastLoaded) CheckpointStateless() {}
func (*PackFit) CheckpointStateless()     {}

var (
	_ checkpoint.Stateful  = (*RoundRobin)(nil)
	_ checkpoint.Stateful  = (*Random)(nil)
	_ checkpoint.Stateless = (*LeastLoaded)(nil)
	_ checkpoint.Stateless = (*PackFit)(nil)
)
