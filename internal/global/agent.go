package global

import (
	"fmt"

	"hierdrl/internal/cluster"
	"hierdrl/internal/mat"
	"hierdrl/internal/nn"
	"hierdrl/internal/rl"
	"hierdrl/internal/sim"
)

// Transition is one experience-memory record: a_k, the equivalent reward
// rate and the sojourn of the SMDP tuple. Its s_k lives in the agent's state
// blocks under the same slot index (Agent.slotState), and the successor
// s_{k+1} is not stored a second time: every observation enters the ring
// once, as the state of the transition it opens (Agent.successor). A
// Transition holds no pointer, so the ring is memory the GC never scans.
type Transition struct {
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
	// states holds s_k of every replay slot: slot i's is a window of block
	// i/blockSlots, allocated when the ring or a restore first reaches it.
	states []mat.Vec
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

	// aeSamples buffers group states for offline autoencoder pretraining, a
	// reservoir of aeSampleCap. aeFill counts the samples it has taken, up
	// to the cap; past it, each group costs an RNG draw. Once
	// PretrainAutoencoder has used the samples, or the agent was restored,
	// aeDropped is set and only the count and the draws go on.
	aeSamples   []mat.Vec
	aeSampleCap int
	aeFill      int
	aeDropped   bool

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
	nextOff     []int
	targetTask  func(worker, b0, b1 int) // a.targets, bound once

	// crew runs each training step's phases on the caller and one helper
	// goroutine (DESIGN.md §7, "Train step on two cores"). It is a separate
	// object so that a parked helper, which holds only the crew, does not
	// keep an agent whose session was dropped without Close alive; once
	// such an agent is collected, stop's finalizer releases the helper.
	crew *crew
	stop *helperStop
}

// blockSlots is the number of replay slots whose states share one block
// (192 KB at the paper's 94-word state): the ring's first fill allocates once
// per blockSlots transitions, and a ring that never fills holds only the
// blocks it reached.
const blockSlots = 256

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
	tgt.sizeTargetArenas()
	a := &Agent{
		cfg:          cfg,
		enc:          enc,
		net:          net,
		tgt:          tgt,
		opt:          nn.NewAdam(cfg.LearningRate),
		eps:          rl.NewEpsilonGreedy(cfg.Epsilon, cfg.EpsilonMin, cfg.EpsilonDecay, rng.Split()),
		rng:          rng.Split(),
		replay:       rl.NewReplay[Transition](cfg.ReplayCap),
		states:       make([]mat.Vec, (cfg.ReplayCap+blockSlots-1)/blockSlots),
		integ:        rl.NewRewardIntegrator(cfg.Beta),
		pendingState: enc.NewState(),
		aeSampleCap:  4096,
		actionCounts: make([]int64, m),
		encScratch:   enc.NewState(),
		crew:         &crew{},
	}
	a.targetTask = a.targets
	a.stop = newHelperStop(a.crew)
	return a, nil
}

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
	a.pendingState.CopyFrom(state)
	a.pendingAction = action
	a.hasPending = true
	a.integ.Reset(v.Now.Seconds(), a.rewardRate())
	a.decisions++

	if !a.frozen && a.replay.Len() >= a.cfg.MiniBatch {
		switch a.decisions % int64(a.cfg.TrainEvery) {
		case 0:
			a.trainStep()
		case int64(a.cfg.TrainEvery / 2):
			a.crew.prewake()
		}
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
// slot it will occupy, overwriting the evicted transition's state in place;
// only the first slot reached in a block allocates (the block). These two
// callers are the ring's only writers.
func (a *Agent) storeTransition(rEq, tau float64, terminal bool) {
	*a.replay.NextSlot() = Transition{Action: a.pendingAction, REq: rEq, Tau: tau, Terminal: terminal}
	a.replay.CommitSlot()
	a.slotState(a.replay.Newest()).CopyFrom(a.pendingState)
}

// slotState returns the state of replay slot i: a window of block
// i/blockSlots, which the first slot reached in it allocates. The last block
// holds only the slots below ReplayCap. Every read and write of a stored
// state goes through here.
func (a *Agent) slotState(i int) State {
	dim := a.enc.StateDim()
	b := i / blockSlots
	if a.states[b] == nil {
		a.states[b] = mat.NewVec(min(blockSlots, a.replay.Cap()-b*blockSlots) * dim)
	}
	off := (i - b*blockSlots) * dim
	return State{v: a.states[b][off : off+dim : off+dim], groupDim: a.enc.GroupDim()}
}

// successor returns s_{k+1} of the non-terminal transition in ring slot i.
// Consecutive decisions of an episode land in consecutive slots, each opening
// with the observation that closed the one before, so the successor is the
// ring neighbour's state — except for the newest slot, whose successor has
// not been stored yet and is the pending state. (A terminal slot's neighbour
// opens the next episode; terminal transitions never bootstrap.)
func (a *Agent) successor(i int) State {
	if i == a.replay.Newest() {
		return a.pendingState
	}
	if i++; i == a.replay.Cap() {
		i = 0
	}
	return a.slotState(i)
}

// trainStep samples a minibatch, computes SMDP targets with the target
// network (Eqn. 2), and applies one clipped Adam update. The step's phases
// run on the caller and the crew's helper; each row task first evaluates its
// own samples' successors through the target network.
func (a *Agent) trainStep() {
	a.crew.begin()
	idxs := a.replay.SampleIndicesInto(a.idxScratch[:0], a.cfg.MiniBatch, a.rng)
	a.idxScratch = idxs
	// Sample b's successor, when it has one, is nexts[nextOff[b]]; the
	// successors of samples [b0, b1) are nexts[nextOff[b0]:nextOff[b1]].
	nexts := a.nextScratch[:0]
	offs := a.nextOff[:0]
	items := a.itemScratch[:0]
	for _, idx := range idxs {
		tr := a.replay.At(idx)
		offs = append(offs, len(nexts))
		if !tr.Terminal {
			nexts = append(nexts, a.successor(idx))
		}
		items = append(items, TrainItem{S: a.slotState(idx), Action: tr.Action})
	}
	a.nextScratch, a.nextOff, a.itemScratch = nexts, append(offs, len(nexts)), items
	if cap(a.maxQScratch) < len(nexts) {
		a.maxQScratch = make([]float64, len(nexts))
	}
	a.maxQScratch = a.maxQScratch[:len(nexts)]
	a.tgt.PrepareTransposes()
	loss := a.net.trainBatch(a.crew, items, a.opt, a.targetTask)
	a.lossSum += loss
	a.lossN++
	a.updates++
	if a.updates%int64(a.cfg.TargetSyncEvery) == 0 {
		a.tgt.CopyWeightsFrom(a.net)
	}
}

// targets fills in the SMDP target of samples [b0, b1) of the minibatch in
// progress: one batched target-network forward over their successors (the
// same values as per-item Best), then Eqn. 2.
func (a *Agent) targets(worker, b0, b1 int) {
	s0, s1 := a.nextOff[b0], a.nextOff[b1]
	maxQ := a.maxQScratch
	a.tgt.maxQFor(worker, a.nextScratch[s0:s1], maxQ[s0:s1])
	for b := b0; b < b1; b++ {
		tr := a.replay.At(a.idxScratch[b])
		var next float64
		if !tr.Terminal {
			next = maxQ[a.nextOff[b]]
		}
		a.itemScratch[b].Target = rl.SMDPTarget(a.cfg.Beta, tr.Tau, tr.REq, next)
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
// samples (offline representation learning) and then drops them: warm-up
// calls it once, and nothing else reads them. Returns the final loss.
func (a *Agent) PretrainAutoencoder(epochs int) float64 {
	loss := a.net.PretrainAutoencoder(a.aeSamples, epochs, 32, 1e-3, a.rng)
	a.aeSamples, a.aeDropped = nil, true
	return loss
}

func (a *Agent) bufferAESamples(s State) {
	for k := 0; k < a.enc.K(); k++ {
		if a.aeFill < a.aeSampleCap {
			a.aeFill++
			if !a.aeDropped {
				a.aeSamples = append(a.aeSamples, s.Group(k).Clone())
			}
			continue
		}
		// Reservoir-style replacement keeps the buffer representative;
		// overwriting the victim in place keeps it allocation-free. The draw
		// is made whether or not the samples are still kept.
		idx := a.rng.Intn(a.aeSampleCap)
		if !a.aeDropped {
			a.aeSamples[idx].CopyFrom(s.Group(k))
		}
	}
}

// TrainInline makes every later training step run on the calling goroutine
// alone — for a caller that already keeps every core busy — and stops the
// helper, if one runs. The steps compute the same bits either way.
func (a *Agent) TrainInline() {
	a.crew.close()
	a.crew.inline = true
}

// Close stops the goroutine that helps with training steps, if one runs.
// The agent stays usable: its next training step starts a new one.
func (a *Agent) Close() { a.crew.close() }

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

// MeanLoss returns the mean training loss so far (NaN-free; 0 when no
// updates have run).
func (a *Agent) MeanLoss() float64 {
	if a.lossN == 0 {
		return 0
	}
	return a.lossSum / float64(a.lossN)
}

// String summarizes the agent's learning state.
func (a *Agent) String() string {
	return fmt.Sprintf("drl{decisions=%d updates=%d replay=%d eps=%.3f loss=%.4g}",
		a.decisions, a.updates, a.replay.Len(), a.eps.Epsilon(), a.MeanLoss())
}
