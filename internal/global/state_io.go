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

// state walks one observation as a fixed-length block: decoding fills s in
// place, so a stored block of any length other than K*GroupDim+JobDim is
// ErrCorrupt.
func (s State) state(c *checkpoint.Codec) { c.F64sFixed(s.v) }

// replayState walks the replay memory. Decoding cleared the ring, so every
// restored slot's block is a capacity-clipped window of one slab of
// Len()·StateDim values: one allocation per restore instead of one per slot,
// and CloneInto still overwrites each window in place when the ring wraps.
func (a *Agent) replayState(c *checkpoint.Codec) {
	dim := a.enc.StateDim()
	var slab mat.Vec
	rl.ReplayState(a.replay, c, func(c *checkpoint.Codec, tr *Transition) {
		if c.Decoding() {
			if slab == nil {
				slab = mat.NewVec(a.replay.Len() * dim)
			}
			tr.S = State{v: slab[:dim:dim], groupDim: a.enc.GroupDim()}
			slab = slab[dim:]
		}
		a.transitionState(c, tr)
	})
}

// transitionState walks one replay slot. A decoded slot's action must name a
// server: trainStep indexes the Sub-Q heads with it.
func (a *Agent) transitionState(c *checkpoint.Codec, tr *Transition) {
	tr.S.state(c)
	c.Int(&tr.Action)
	c.F64(&tr.REq)
	c.F64(&tr.Tau)
	c.Bool(&tr.Terminal)
	if c.Decoding() && c.Err() == nil && (tr.Action < 0 || tr.Action >= a.enc.M()) {
		c.Fail(checkpoint.ErrCorrupt, "replay action %d out of range [0,%d)", tr.Action, a.enc.M())
	}
}

// aeSamplesState walks the autoencoder sample reservoir, GroupDim values per
// sample. Decoding cuts the samples from one slab, as replayState does.
func (a *Agent) aeSamplesState(c *checkpoint.Codec) {
	gd := a.enc.GroupDim()
	n := c.Count(len(a.aeSamples), 8*(1+gd))
	if c.Decoding() {
		slab := mat.NewVec(n * gd)
		a.aeSamples = make([]mat.Vec, n)
		for i := range a.aeSamples {
			a.aeSamples[i] = slab[i*gd : (i+1)*gd : (i+1)*gd]
		}
	}
	for _, v := range a.aeSamples {
		c.F64sFixed(v)
	}
}

// State implements checkpoint.Stateful: the complete learning trajectory of
// the DRL broker. Everything a resumed run's decisions can observe is
// captured — both networks' weights, Adam moments, every RNG chain, the
// replay memory, the open sojourn and pending transition (whose state is
// also the newest replay slot's successor), the epsilon schedule, the
// autoencoder sample reservoir (its fill level gates an RNG draw per
// buffered group), and all counters.
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
	a.replayState(c)
	a.integ.State(c)
	c.F64(&a.lastPower)
	c.Int(&a.lastJobs)
	c.F64(&a.lastReli)
	c.Bool(&a.hasPending)
	a.pendingState.state(c)
	c.Int(&a.pendingAction)
	c.Bool(&a.frozen)
	c.I64(&a.decisions)
	c.I64(&a.updates)
	c.F64(&a.lossSum)
	c.I64(&a.lossN)
	counts := a.actionCounts
	c.I64s(&counts)
	a.aeSamplesState(c)
	if !c.Decoding() || c.Err() != nil {
		return
	}
	if len(counts) != len(a.actionCounts) {
		c.Fail(checkpoint.ErrConfigMismatch, "action count width %d, want %d", len(counts), len(a.actionCounts))
		return
	}
	copy(a.actionCounts, counts)
	switch {
	case a.hasPending && (a.pendingAction < 0 || a.pendingAction >= a.enc.M()):
		c.Fail(checkpoint.ErrCorrupt, "pending action %d out of range [0,%d)", a.pendingAction, a.enc.M())
	case !a.hasPending && a.replay.Len() > 0 && !a.replay.Latest().Terminal:
		c.Fail(checkpoint.ErrCorrupt, "newest replay transition bootstraps from a pending state the snapshot lacks")
	}
}

var _ checkpoint.Stateful = (*Agent)(nil)
