package global

import (
	"hierdrl/internal/checkpoint"
	"hierdrl/internal/mat"
	"hierdrl/internal/nn"
	"hierdrl/internal/rl"
)

// state walks every trainable tensor of the online Q path in enumeration
// order (AE encoders then Sub-Q heads; decoders train only in offline
// pretraining, which never reruns after a restore).
func (n *QNetwork) state(c *checkpoint.Codec) {
	nn.ParamsState(c, "Q-network", n.Params())
	if c.Decoding() {
		n.InvalidateTransposes()
	}
}

func vecsState(c *checkpoint.Codec, vs *[]mat.Vec) {
	n := c.Count(len(*vs), 8)
	if c.Decoding() {
		*vs = append((*vs)[:0], make([]mat.Vec, n)...)
	}
	for i := range *vs {
		c.F64s((*[]float64)(&(*vs)[i]))
	}
}

func (s *State) state(c *checkpoint.Codec) {
	vecsState(c, &s.Groups)
	c.F64s((*[]float64)(&s.Job))
}

func transitionState(c *checkpoint.Codec, tr *Transition) {
	tr.S.state(c)
	c.Int(&tr.Action)
	c.F64(&tr.REq)
	c.F64(&tr.Tau)
	tr.Next.state(c)
	c.Bool(&tr.Terminal)
}

// State implements checkpoint.Stateful: the complete learning trajectory of
// the DRL broker. Everything a resumed run's decisions can observe is
// captured — both networks' weights, Adam moments, every RNG chain, the
// replay memory with its slot generations, the open sojourn and pending
// transition, the epsilon schedule, the autoencoder sample reservoir (its
// fill level gates an RNG draw per buffered group), and all counters.
// Decoding requires an agent constructed from
// the same Config (same architecture, replay capacity, and server count).
func (a *Agent) State(c *checkpoint.Codec) {
	if a.behavior != nil && !c.Decoding() {
		// Checkpoints are taken between session decision epochs, after warmup
		// has completed; a live behaviour policy would not survive the
		// round-trip, so refuse to pretend it does.
		panic("global: checkpoint with active behaviour policy")
	}
	a.net.state(c)
	a.tgt.state(c)
	a.opt.State(c)
	a.eps.State(c)
	c.RNG(a.eps.RNG())
	c.RNG(a.rng)
	rl.ReplayState(a.replay, c, transitionState)
	a.integ.State(c)
	c.F64(&a.lastPower)
	c.Int(&a.lastJobs)
	c.F64(&a.lastReli)
	c.Bool(&a.hasPending)
	a.pendingState.state(c)
	c.Int(&a.pendingAction)
	c.F64((*float64)(&a.pendingTime))
	c.Bool(&a.frozen)
	c.I64(&a.decisions)
	c.I64(&a.updates)
	c.F64(&a.lossSum)
	c.I64(&a.lossN)
	counts := a.actionCounts
	c.I64s(&counts)
	c.I64(&a.tgtVersion)
	vecsState(c, &a.aeSamples)
	if !c.Decoding() || c.Err() != nil {
		return
	}
	if len(counts) != len(a.actionCounts) {
		c.Fail(checkpoint.ErrConfigMismatch, "action count width %d, want %d", len(counts), len(a.actionCounts))
		return
	}
	copy(a.actionCounts, counts)
}

var _ checkpoint.Stateful = (*Agent)(nil)
