package lstm

import (
	"hierdrl/internal/checkpoint"
	"hierdrl/internal/nn"
)

// State implements checkpoint.Stateful: weights, optimizer moments, the
// training RNG, and the full observation trajectory (history window, Welford
// moments, step counters). Inference and BPTT scratch buffers are rebuilt
// lazily and carry no information. It joins the training round in flight
// first, so a snapshot holds that round's step.
func (p *Predictor) State(c *checkpoint.Codec) {
	p.Join()
	nn.ParamsState(c, "LSTM", p.net.Params())
	if c.Decoding() {
		p.net.InvalidateTransposes()
	}
	p.opt.State(c)
	c.RNG(p.rng)
	c.F64(&p.lastArrival)
	c.F64s(&p.history)
	c.Int(&p.count)
	c.F64(&p.mean)
	c.F64(&p.m2)
	c.Int(&p.trained)
	c.Int(&p.sinceT)
}

var _ checkpoint.Stateful = (*Predictor)(nil)
