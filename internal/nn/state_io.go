package nn

import (
	"hierdrl/internal/checkpoint"
)

// State walks the optimizer's step count and moment buffers. The moment
// buffers are lazily allocated on the first Step, so a never-stepped
// optimizer round-trips as (t=0, no buffers). Hyperparameters (LR, betas,
// eps) are construction config and are not touched.
func (a *Adam) State(c *checkpoint.Codec) {
	c.Int(&a.t)
	n := c.Count(len(a.m), 16) // two length prefixes per tensor
	if c.Decoding() {
		a.m, a.v = nil, nil
		if n > 0 {
			a.m = make([][]float64, n)
			a.v = make([][]float64, n)
		}
	}
	for i := 0; i < n; i++ {
		c.F64s(&a.m[i])
		c.F64s(&a.v[i])
	}
}

// ParamsState walks every tensor of params in enumeration order into the
// existing storage: the architecture is construction config, so a snapshot
// with another tensor count or shape is rejected. what names the network in
// the mismatch error. Gradients and cached transposes are scratch and
// excluded; the caller invalidates the transposes after a decode.
func ParamsState(c *checkpoint.Codec, what string, params []Param) {
	cnt := len(params)
	c.Int(&cnt)
	if cnt != len(params) {
		c.Fail(checkpoint.ErrConfigMismatch, "%s tensor count %d, want %d", what, cnt, len(params))
	}
	for _, p := range params {
		c.F64sFixed(p.Val)
	}
}

var _ checkpoint.Stateful = (*Adam)(nil)
