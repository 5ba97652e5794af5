package global

import (
	"fmt"
	"io"

	"hierdrl/internal/cluster"
	"hierdrl/internal/mat"
	"hierdrl/internal/nn"
	"hierdrl/internal/rl"
	"hierdrl/internal/sim"
)

// Transition is one experience-memory record: the SMDP tuple
// (s_k, a_k, equivalent reward rate, sojourn). The successor s_{k+1} is not
// stored a second time: every observation enters the ring once, as the S of
// the transition it opens (Agent.successor).
type Transition struct {
	S      State
	Action int
	REq    float64
	Tau    float64
	// Terminal marks end-of-episode transitions (no successor bootstrap).
	Terminal bool
}

// Agent is the DRL job broker. It implements policy.Allocator, learning
// online: each Allocate call is one decision epoch (a job arrival); the
// reward rate of Eqn. (4) is integrated exactly between consecutive epochs
// via the cluster's change feed; completed transitions land in experience
// replay; and every TrainEvery decisions the DNN takes a minibatch step
// against a periodically synchronized target network.
type Agent struct {
	cfg Config
	enc *Encoder
	net *QNetwork
	tgt *QNetwork
	opt *nn.Adam
	eps *rl.EpsilonGreedy
	rng *mat.RNG

	replay *rl.Replay[Transition]
	integ  *rl.RewardIntegrator

	lastPower float64
	lastJobs  int
	lastReli  float64

	hasPending    bool
	pendingState  State
	pendingAction int

	// behavior, when non-nil, overrides action selection (Algorithm 1's
	// offline phase allows an arbitrary or refined behaviour policy to
	// fill the experience memory). A 20% uniform mix keeps coverage.
	behavior func(j *cluster.Job, v *cluster.View) int

	frozen       bool
	decisions    int64
	updates      int64
	lossSum      float64
	lossN        int64
	actionCounts []int64

	// aeSamples buffers group states for offline autoencoder pretraining.
	aeSamples   []mat.Vec
	aeSampleCap int

	// Decision-epoch scratch: every per-epoch buffer (encoded state, Q
	// values, fit candidates, training batch assembly) is retained on the
	// agent, so a warm Allocate call performs no heap allocation.
	encScratch  State
	qScratch    mat.Vec
	fitScratch  []int
	idxScratch  []int
	nextScratch []State
	itemScratch []TrainItem
	maxQScratch []float64
}

// NewAgent builds a DRL agent for a cluster of m servers.
func NewAgent(cfg Config, m int, rng *mat.RNG) (*Agent, error) {
	if err := cfg.Validate(m); err != nil {
		return nil, err
	}
	enc, err := NewEncoder(m, cfg.K, cfg.DurationNormSec)
	if err != nil {
		return nil, err
	}
	net := NewQNetwork(enc, cfg, rng.Split())
	tgt := NewQNetwork(enc, cfg, rng.Split())
	tgt.CopyWeightsFrom(net)
	return &Agent{
		cfg:          cfg,
		enc:          enc,
		net:          net,
		tgt:          tgt,
		opt:          nn.NewAdam(cfg.LearningRate),
		eps:          rl.NewEpsilonGreedy(cfg.Epsilon, cfg.EpsilonMin, cfg.EpsilonDecay, rng.Split()),
		rng:          rng.Split(),
		replay:       rl.NewReplay[Transition](cfg.ReplayCap),
		integ:        rl.NewRewardIntegrator(cfg.Beta),
		pendingState: enc.NewState(),
		aeSampleCap:  4096,
		actionCounts: make([]int64, m),
		encScratch:   enc.NewState(),
	}, nil
}

// Name implements policy.Allocator.
func (a *Agent) Name() string { return "drl" }

// rewardRate computes the Eqn. (4) reward rate from the latest cluster
// observation: r(t) = -w1*Power - w2*#VMs - w3*Reli, all normalized.
func (a *Agent) rewardRate() float64 {
	return -a.cfg.RewardScale * (a.cfg.W1*a.lastPower/a.cfg.PowerNormW +
		a.cfg.W2*float64(a.lastJobs)/a.cfg.VMNorm +
		a.cfg.W3*a.lastReli/a.cfg.ReliNorm)
}

// ObserveCluster streams reward-rate inputs. Wire it so it fires on every
// cluster change (see the runner): power in watts, jobs in system, and the
// reliability objective value.
func (a *Agent) ObserveCluster(t sim.Time, powerW float64, jobsInSystem int, reli float64) {
	a.lastPower = powerW
	a.lastJobs = jobsInSystem
	a.lastReli = reli
	if a.integ.Started() {
		a.integ.SetRate(t.Seconds(), a.rewardRate())
	}
}

// Allocate implements policy.Allocator: one decision epoch. It closes the
// previous transition with the exactly-integrated reward, stores it, picks
// the next action epsilon-greedily from the DNN's Q estimates, and triggers
// minibatch training at sequence boundaries.
func (a *Agent) Allocate(j *cluster.Job, v *cluster.View) int {
	a.enc.EncodeInto(v, j, a.encScratch)
	state := a.encScratch
	a.bufferAESamples(state)

	if a.hasPending {
		rEq, tau := a.integ.EquivalentRate(v.Now.Seconds())
		a.storeTransition(rEq, tau, false)
	}

	var action int
	if a.behavior != nil {
		// Offline-phase rollout: behaviour policy with a 20% uniform mix.
		if a.rng.Float64() < 0.2 {
			action = a.rng.Intn(a.enc.M())
		} else {
			action = a.behavior(j, v)
		}
		if action < 0 || action >= a.enc.M() {
			panic(fmt.Sprintf("global: behaviour policy chose invalid action %d", action))
		}
	} else {
		best := a.greedyAction(state, j, v)
		action = a.eps.SelectAction(a.enc.M(), best)
		// Guided exploration: when epsilon fired, re-draw uniformly among
		// servers the job actually fits on right now, so exploration does
		// not systematically build queues (documented deviation; DESIGN.md
		// §5).
		if action != best {
			action = a.exploreFit(j, v)
		}
	}

	a.actionCounts[action]++
	state.CloneInto(&a.pendingState)
	a.pendingAction = action
	a.hasPending = true
	a.integ.Reset(v.Now.Seconds(), a.rewardRate())
	a.decisions++

	if !a.frozen && a.decisions%int64(a.cfg.TrainEvery) == 0 &&
		a.replay.Len() >= a.cfg.MiniBatch {
		a.trainStep()
	}
	return action
}

// greedyAction returns the argmax action, restricted (when MaskUnfit is on)
// to servers whose committed load accommodates the job; when nothing fits it
// falls back to the least-committed server.
func (a *Agent) greedyAction(state State, j *cluster.Job, v *cluster.View) int {
	if a.qScratch == nil {
		a.qScratch = mat.NewVec(a.enc.M())
	}
	a.net.QValuesInto(state, a.qScratch)
	q := a.qScratch
	if !a.cfg.MaskUnfit {
		best, _ := q.Max()
		return best
	}
	best := -1
	bestQ := 0.0
	for i := 0; i < v.M; i++ {
		total := v.Util[i].Add(v.Pending[i]).Add(j.Req)
		fits := true
		for _, x := range total {
			if x > 1 {
				fits = false
				break
			}
		}
		if fits && (best < 0 || q[i] > bestQ) {
			best, bestQ = i, q[i]
		}
	}
	if best >= 0 {
		return best
	}
	// Overload fallback: least-committed server.
	least, lc := 0, 1e18
	for i := 0; i < v.M; i++ {
		if c := v.Util[i].Add(v.Pending[i]).MaxFrac(); c < lc {
			least, lc = i, c
		}
	}
	return least
}

// exploreFit returns a uniform sample among servers where the job fits
// within committed capacity (running + queued demand), falling back to a
// fully uniform draw when no server fits.
func (a *Agent) exploreFit(j *cluster.Job, v *cluster.View) int {
	fits := a.fitScratch[:0]
	for i := 0; i < v.M; i++ {
		total := v.Util[i].Add(v.Pending[i]).Add(j.Req)
		ok := true
		for _, x := range total {
			if x > 1 {
				ok = false
				break
			}
		}
		if ok {
			fits = append(fits, i)
		}
	}
	a.fitScratch = fits
	if len(fits) == 0 {
		return a.rng.Intn(v.M)
	}
	return fits[a.rng.Intn(len(fits))]
}

// SetBehavior installs (or clears, with nil) an external behaviour policy
// for offline-phase rollouts. While set, actions come from the policy (with
// a 20% uniform exploration mix) and the agent only records transitions and
// trains.
func (a *Agent) SetBehavior(b func(j *cluster.Job, v *cluster.View) int) {
	a.behavior = b
}

// FinishEpisode closes the pending transition at the end of a trace segment
// with a terminal (no-bootstrap) record.
func (a *Agent) FinishEpisode(t sim.Time) {
	if !a.hasPending {
		return
	}
	rEq, tau := a.integ.EquivalentRate(t.Seconds())
	a.storeTransition(rEq, tau, true)
	a.hasPending = false
}

// storeTransition closes the pending (state, action) pair into the replay
// slot it will occupy, recycling the evicted transition's state block; only
// a never-used slot allocates. These two callers are the ring's only writers.
func (a *Agent) storeTransition(rEq, tau float64, terminal bool) {
	tr := a.replay.NextSlot()
	a.pendingState.CloneInto(&tr.S)
	tr.Action = a.pendingAction
	tr.REq = rEq
	tr.Tau = tau
	tr.Terminal = terminal
	a.replay.CommitSlot()
}

// successor returns s_{k+1} of the non-terminal transition in ring slot i.
// Consecutive decisions of an episode land in consecutive slots, each opening
// with the observation that closed the one before, so the successor is the
// ring neighbour's S — except for the newest slot, whose successor has not
// been stored yet and is the pending state. (A terminal slot's neighbour
// opens the next episode; terminal transitions never bootstrap.)
func (a *Agent) successor(i int) State {
	if i == a.replay.Newest() {
		return a.pendingState
	}
	if i++; i == a.replay.Cap() {
		i = 0
	}
	return a.replay.At(i).S
}

// trainStep samples a minibatch, computes SMDP targets with the target
// network (Eqn. 2), and applies one clipped Adam update.
func (a *Agent) trainStep() {
	idxs := a.replay.SampleIndicesInto(a.idxScratch[:0], a.cfg.MiniBatch, a.rng)
	a.idxScratch = idxs
	// Evaluate every non-terminal successor's max-Q through the target
	// network in one batched forward (identical values to per-item Best).
	nexts := a.nextScratch[:0]
	for _, idx := range idxs {
		if !a.replay.At(idx).Terminal {
			nexts = append(nexts, a.successor(idx))
		}
	}
	a.nextScratch = nexts
	if cap(a.maxQScratch) < len(nexts) {
		a.maxQScratch = make([]float64, len(nexts))
	}
	maxQ := a.maxQScratch[:len(nexts)]
	a.tgt.MaxQBatchInto(nexts, maxQ)
	items := a.itemScratch[:0]
	for _, idx := range idxs {
		tr := a.replay.At(idx)
		var next float64
		if !tr.Terminal {
			next, maxQ = maxQ[0], maxQ[1:]
		}
		items = append(items, TrainItem{
			S:      tr.S,
			Action: tr.Action,
			Target: rl.SMDPTarget(a.cfg.Beta, tr.Tau, tr.REq, next),
		})
	}
	a.itemScratch = items
	loss := a.net.TrainBatch(items, a.opt)
	a.lossSum += loss
	a.lossN++
	a.updates++
	if a.updates%int64(a.cfg.TargetSyncEvery) == 0 {
		a.tgt.CopyWeightsFrom(a.net)
	}
}

// TrainOffline runs extra fitted-Q sweeps over the experience memory — the
// Algorithm 1 offline construction phase, used after warmup rollouts.
func (a *Agent) TrainOffline(steps int) {
	for i := 0; i < steps && a.replay.Len() >= a.cfg.MiniBatch; i++ {
		a.trainStep()
	}
}

// PretrainAutoencoder trains the autoencoder(s) on the buffered group-state
// samples (offline representation learning). Returns the final loss.
func (a *Agent) PretrainAutoencoder(epochs int) float64 {
	return a.net.PretrainAutoencoder(a.aeSamples, epochs, 32, 1e-3, a.rng)
}

func (a *Agent) bufferAESamples(s State) {
	for k := 0; k < a.enc.K(); k++ {
		g := s.Group(k)
		if len(a.aeSamples) < a.aeSampleCap {
			a.aeSamples = append(a.aeSamples, g.Clone())
		} else {
			// Reservoir-style replacement keeps the buffer representative;
			// overwriting the victim in place keeps it allocation-free.
			idx := a.rng.Intn(a.aeSampleCap)
			a.aeSamples[idx].CopyFrom(g)
		}
	}
}

// FreezePolicy stops exploration and learning (evaluation mode).
func (a *Agent) FreezePolicy() {
	a.eps.SetEpsilon(0)
	a.frozen = true
}

// SetEpsilon overrides the exploration rate (e.g., 1.0 for the random
// warmup rollouts of the offline phase).
func (a *Agent) SetEpsilon(eps float64) { a.eps.SetEpsilon(eps) }

// Epsilon returns the current exploration rate.
func (a *Agent) Epsilon() float64 { return a.eps.Epsilon() }

// Decisions returns the number of allocation epochs seen.
func (a *Agent) Decisions() int64 { return a.decisions }

// Updates returns the number of DNN minibatch updates.
func (a *Agent) Updates() int64 { return a.updates }

// ReplayLen returns the number of stored transitions.
func (a *Agent) ReplayLen() int { return a.replay.Len() }

// MeanLoss returns the mean training loss so far (NaN-free; 0 when no
// updates have run).
func (a *Agent) MeanLoss() float64 {
	if a.lossN == 0 {
		return 0
	}
	return a.lossSum / float64(a.lossN)
}

// ActionCounts returns how many times each server has been chosen —
// a quick skew diagnostic for the learned policy.
func (a *Agent) ActionCounts() []int64 {
	out := make([]int64, len(a.actionCounts))
	copy(out, a.actionCounts)
	return out
}

// Network exposes the online network for tests and ablations.
func (a *Agent) Network() *QNetwork { return a.net }

// Encoder exposes the state encoder.
func (a *Agent) EncoderRef() *Encoder { return a.enc }

// SaveWeights serializes the online network's weights (JSON). Optimizer
// state is not captured: a restored agent resumes with fresh Adam moments,
// which is the standard checkpointing contract.
func (a *Agent) SaveWeights(w io.Writer) error {
	return nn.TakeSnapshot(a.net.Params()).Write(w)
}

// LoadWeights restores weights saved by SaveWeights into the online network
// and synchronizes the target network. The architecture must match.
func (a *Agent) LoadWeights(r io.Reader) error {
	snap, err := nn.ReadSnapshot(r)
	if err != nil {
		return err
	}
	if err := snap.Restore(a.net.Params()); err != nil {
		return err
	}
	a.net.InvalidateTransposes()
	a.tgt.CopyWeightsFrom(a.net)
	return nil
}

// String summarizes the agent's learning state.
func (a *Agent) String() string {
	return fmt.Sprintf("drl{decisions=%d updates=%d replay=%d eps=%.3f loss=%.4g}",
		a.decisions, a.updates, a.replay.Len(), a.eps.Epsilon(), a.MeanLoss())
}
