package global

import (
	"fmt"

	"hierdrl/internal/mat"
	"hierdrl/internal/nn"
)

// QNetwork is the Fig. 6 deep Q-network. For each group k, the Sub-Q head
// consumes the group's own raw state g_k, the job state s_j, and the
// *compressed* representations of every other group (from the
// autoencoders), and emits one Q value per server in G_k. The dimension
// asymmetry — raw own-group state vs compressed remote-group state — is
// exactly the paper's representation-learning trick; weight sharing across
// groups makes every sample train every head.
//
// Two ablation switches mirror Sec. V-A's design claims: UseAutoencoder=false
// feeds raw remote state to the heads; ShareWeights=false trains K
// independent autoencoders and heads.
//
// Compute model: in the (default) weight-sharing configuration every
// inference and training call collapses to batched GEMMs — all K heads (and
// all remote-group encodes) of a state are evaluated as one matrix-matrix
// product, and TrainBatch pushes the whole minibatch through the network in
// one shot. The batched paths are bitwise identical to the per-sample
// reference paths (see internal/mat kernel ordering contract), which the
// qnet batch tests assert.
type QNetwork struct {
	enc   *Encoder
	cfg   Config
	aes   []*nn.Autoencoder // len 1 when shared, K otherwise
	subs  []*nn.MLP         // len 1 when shared, K otherwise
	codeD int               // per-remote-group feature width fed to Sub-Q

	// ws is the scratch arena for the inference fast paths and the training
	// step's shared buffers; helperWS is the train-step helper's arena for
	// its share of the target pass. remoteBuf holds each worker's remote
	// feature headers (index 0: the caller). A QNetwork is not safe for
	// concurrent use; concurrent experiment runs each own their networks.
	ws         *mat.Workspace
	helperWS   *mat.Workspace
	remoteBuf  [2][]mat.Vec
	groupsView mat.Dense // K x GroupDim header over a state's group block

	// aeTape and subTape hold the backprop state of the training step's two
	// batched passes (shared-weight path), reused every step.
	aeTape, subTape nn.BatchTape

	// step is the training step in progress; the task bodies below read
	// it. They are bound once, in NewQNetwork, so a warm step hands the crew
	// no new closure.
	step                          stepBufs
	rowTask, gradTask, updateTask func(worker, task int)
	ranges                        []layerRange

	// params caches the Params() enumeration: the parameter tensors are
	// fixed at construction, so the slice (and the formatted names) never
	// change, and rebuilding it per training step would allocate.
	params []nn.Param
}

// NewQNetwork builds the network for the given encoder and config.
func NewQNetwork(enc *Encoder, cfg Config, rng *mat.RNG) *QNetwork {
	n := &QNetwork{enc: enc, cfg: cfg, ws: mat.NewWorkspace()}
	codeDim := cfg.AEHidden[len(cfg.AEHidden)-1]
	if cfg.UseAutoencoder {
		n.codeD = codeDim
	} else {
		n.codeD = enc.GroupDim()
	}
	inDim := enc.GroupDim() + enc.JobDim() + (enc.K()-1)*n.codeD
	// Dueling head (Wang et al., cited by the paper for gradient clipping):
	// the first output is the group's state value V, the remaining
	// GroupSize outputs are advantages A_o, combined as
	// Q_o = V + A_o - mean(A). Cloud placement rewards are dominated by
	// global terms (total power, total jobs) that are identical across
	// actions; the decomposition keeps that common mass in V so the
	// network's capacity goes to the per-action differences that actually
	// drive the argmax.
	sizes := []int{inDim, cfg.SubQHidden, enc.GroupSize() + 1}
	acts := []nn.Activation{nn.ELU, nn.Identity}

	count := 1
	if !cfg.ShareWeights {
		count = enc.K()
	}
	for i := 0; i < count; i++ {
		if cfg.UseAutoencoder {
			n.aes = append(n.aes, nn.NewAutoencoder(enc.GroupDim(), cfg.AEHidden, rng))
		}
		n.subs = append(n.subs, nn.NewMLP(sizes, acts, rng))
	}
	n.helperWS = mat.NewWorkspace()
	for w := range n.remoteBuf {
		n.remoteBuf[w] = make([]mat.Vec, enc.K())
	}
	n.groupsView = mat.Dense{Rows: enc.K(), Cols: enc.GroupDim()}
	n.bindTasks()
	return n
}

// inDim is the Sub-Q head input width.
func (n *QNetwork) inDim() int {
	return n.enc.GroupDim() + n.enc.JobDim() + (n.enc.K()-1)*n.codeD
}

func (n *QNetwork) aeFor(k int) *nn.Autoencoder {
	if n.cfg.ShareWeights {
		return n.aes[0]
	}
	return n.aes[k]
}

func (n *QNetwork) subFor(k int) *nn.MLP {
	if n.cfg.ShareWeights {
		return n.subs[0]
	}
	return n.subs[k]
}

// remoteFeature returns the representation of group k' as seen by another
// group's head: the autoencoder code, or the raw state in the ablation.
func (n *QNetwork) remoteFeature(k int, g mat.Vec) mat.Vec {
	if !n.cfg.UseAutoencoder {
		return g
	}
	return n.aeFor(k).EncodeInfer(g)
}

// headInput assembles the Sub-Q input for group k given precomputed remote
// features.
func (n *QNetwork) headInput(k int, s State, remote []mat.Vec) mat.Vec {
	parts := make([]mat.Vec, 0, 1+1+n.enc.K()-1)
	parts = append(parts, s.Group(k), s.Job())
	for kp := 0; kp < n.enc.K(); kp++ {
		if kp != k {
			parts = append(parts, remote[kp])
		}
	}
	return mat.Concat(parts...)
}

// fillHeadInput writes the Sub-Q input for group k into dst (layout
// [g_k | job | remote features in ascending k' order], identical to
// headInput).
func (n *QNetwork) fillHeadInput(dst mat.Vec, k int, s State, remote []mat.Vec) {
	gd := n.enc.GroupDim()
	jd := n.enc.JobDim()
	copy(dst[:gd], s.Group(k))
	copy(dst[gd:gd+jd], s.Job())
	off := gd + jd
	for kp := 0; kp < n.enc.K(); kp++ {
		if kp == k {
			continue
		}
		copy(dst[off:off+n.codeD], remote[kp])
		off += n.codeD
	}
}

// duel converts a raw head output [V, A_1..A_G] into Q values
// Q_o = V + A_o - mean(A).
func duel(raw mat.Vec) mat.Vec {
	q := mat.NewVec(len(raw) - 1)
	duelInto(raw, q)
	return q
}

// duelInto is duel writing into a caller-owned slice of length len(raw)-1.
func duelInto(raw, q mat.Vec) {
	v := raw[0]
	adv := raw[1:]
	meanA := mat.Vec(adv).Mean()
	for o, a := range adv {
		q[o] = v + a - meanA
	}
}

// remoteFeaturesWS computes the remote-group features of s into the reused
// remoteBuf, batching the shared-encoder case into one GEMM.
func (n *QNetwork) remoteFeaturesWS(ws *mat.Workspace, s State) []mat.Vec {
	K := n.enc.K()
	remote := n.remoteBuf[0]
	switch {
	case !n.cfg.UseAutoencoder:
		for k := 0; k < K; k++ {
			remote[k] = s.Group(k)
		}
	case n.cfg.ShareWeights:
		// The K x GroupDim encoder input is the state's own group block.
		n.groupsView.Data = s.Groups()
		codes := n.aes[0].Enc.InferBatchWS(ws, &n.groupsView)
		for k := 0; k < K; k++ {
			remote[k] = codes.Row(k)
		}
	default:
		for k := 0; k < K; k++ {
			remote[k] = n.aes[k].Enc.InferWS(ws, s.Group(k))
		}
	}
	return remote
}

// QValues performs inference for every action: a vector of M Q-value
// estimates, one per server.
func (n *QNetwork) QValues(s State) mat.Vec {
	out := mat.NewVec(n.enc.M())
	n.QValuesInto(s, out)
	return out
}

// QValuesInto computes QValues into a caller-owned vector of length M. With
// weight sharing, all K Sub-Q heads (and all K remote encodes) evaluate as
// one batched forward; apart from the caller's out vector the call is
// allocation-free at steady state.
func (n *QNetwork) QValuesInto(s State, out mat.Vec) {
	if len(out) != n.enc.M() {
		panic(fmt.Sprintf("global: QValuesInto dst length %d want %d", len(out), n.enc.M()))
	}
	K := n.enc.K()
	G := n.enc.GroupSize()
	ws := n.ws
	ws.Reset()
	remote := n.remoteFeaturesWS(ws, s)
	if n.cfg.ShareWeights {
		in := ws.TakeMatUninit(K, n.inDim())
		for k := 0; k < K; k++ {
			n.fillHeadInput(in.Row(k), k, s, remote)
		}
		raw := n.subs[0].InferBatchWS(ws, in)
		for k := 0; k < K; k++ {
			duelInto(raw.Row(k), out[k*G:(k+1)*G])
		}
		return
	}
	for k := 0; k < K; k++ {
		in := ws.TakeUninit(n.inDim())
		n.fillHeadInput(in, k, s, remote)
		raw := n.subs[k].InferWS(ws, in)
		duelInto(raw, out[k*G:(k+1)*G])
	}
}

// Best returns the greedy action and its value.
func (n *QNetwork) Best(s State) (action int, value float64) {
	q := n.QValues(s)
	return q.Max()
}

// MaxQBatch returns max_a Q(s, a) for every state, batching all states and
// all heads through one forward pass in the weight-sharing configuration.
// Each value is bitwise identical to QValues(s).Max().
func (n *QNetwork) MaxQBatch(states []State) []float64 {
	vals := make([]float64, len(states))
	n.maxQFor(0, states, vals)
	return vals
}

// maxQFor is MaxQBatch writing into vals (length len(states)), run by one
// worker of a split training step with that worker's arena and
// remote-feature headers. A state's value never depends on the other rows of
// its batch, so any split of the states between workers yields the same
// bits; the caller of a split builds the target network's cached transposes
// first (PrepareTransposes).
func (n *QNetwork) maxQFor(worker int, states []State, vals []float64) {
	if len(states) == 0 {
		return
	}
	if !n.cfg.ShareWeights {
		for i, s := range states {
			_, vals[i] = n.Best(s)
		}
		return
	}
	ws := n.ws
	if worker == 1 {
		ws = n.helperWS
	}
	ws.Reset()
	n.maxQRows(ws, n.remoteBuf[worker], states, vals)
}

// PrepareTransposes builds every stale cached transpose of the inference
// path, so that workers sharing the network afterwards only read them.
func (n *QNetwork) PrepareTransposes() {
	for _, ae := range n.aes {
		ae.Enc.PrepareTransposes()
	}
	for _, sub := range n.subs {
		sub.PrepareTransposes()
	}
}

// maxQRows computes the shared-weight max-Q of states into vals, all states
// and heads as one batched forward, with scratch from ws.
func (n *QNetwork) maxQRows(ws *mat.Workspace, remote []mat.Vec, states []State, vals []float64) {
	K := n.enc.K()
	G := n.enc.GroupSize()
	gd := n.enc.GroupDim()
	R := len(states) * K
	var codes *mat.Dense
	if n.cfg.UseAutoencoder {
		X := ws.TakeMatUninit(R, gd)
		for i, s := range states {
			copy(X.Data[i*K*gd:(i+1)*K*gd], s.Groups())
		}
		codes = n.aes[0].Enc.InferBatchWS(ws, X)
	}
	in := ws.TakeMatUninit(R, n.inDim())
	for i, s := range states {
		for k := 0; k < K; k++ {
			if n.cfg.UseAutoencoder {
				remote[k] = codes.Row(i*K + k)
			} else {
				remote[k] = s.Group(k)
			}
		}
		for k := 0; k < K; k++ {
			n.fillHeadInput(in.Row(i*K+k), k, s, remote)
		}
	}
	raw := n.subs[0].InferBatchWS(ws, in)
	out := ws.TakeUninit(n.enc.M())
	for i := range states {
		for k := 0; k < K; k++ {
			duelInto(raw.Row(i*K+k), out[k*G:(k+1)*G])
		}
		_, vals[i] = out.Max()
	}
}

// Q returns the value estimate of one (state, action) pair.
func (n *QNetwork) Q(s State, action int) float64 {
	k := n.enc.GroupOf(action)
	remote := make([]mat.Vec, n.enc.K())
	for kp := 0; kp < n.enc.K(); kp++ {
		if kp != k {
			remote[kp] = n.remoteFeature(kp, s.Group(kp))
		}
	}
	q := duel(n.subFor(k).Infer(n.headInput(k, s, remote)))
	return q[n.enc.OffsetOf(action)]
}

// TrainItem is one supervised pair for Q regression.
type TrainItem struct {
	S      State
	Action int
	Target float64
}

// TrainBatch runs one optimizer step on a minibatch, backpropagating through
// the chosen head and (when autoencoders are enabled) through the encoders
// of the remote groups. It returns the mean squared error. With weight
// sharing the whole minibatch flows through the encoder and the Sub-Q head
// as batched GEMMs; the resulting gradients (and therefore weights) are
// bitwise identical to the per-sample accumulation path.
func (n *QNetwork) TrainBatch(batch []TrainItem, opt *nn.Adam) float64 {
	return n.trainBatch(nil, batch, opt, nil)
}

// trainBatch is TrainBatch with its phases split between c's workers
// (DESIGN.md §7, "Train step on two cores"): sample rows through the forward
// and backward passes, then output neurons through the weight gradients
// (zeroed by the same task) and, once the caller has the gradient norm — one
// sum, so not split — through the clip rescale, Adam and the rows of the
// cached transposes. targets, when set, fills in the Target of samples
// [b0, b1) at the start of their row task. Without weight sharing the step
// runs the per-sample path on the caller.
func (n *QNetwork) trainBatch(c *crew, batch []TrainItem, opt *nn.Adam, targets func(worker, b0, b1 int)) float64 {
	if len(batch) == 0 {
		return 0
	}
	params := n.Params()
	scale := 1 / float64(len(batch))
	var total float64
	if !n.cfg.ShareWeights {
		if targets != nil {
			targets(0, 0, len(batch))
		}
		nn.ZeroGrads(params)
		for _, item := range batch {
			total += n.accumulate(item, scale)
		}
		if n.cfg.ClipNorm > 0 {
			nn.ClipGrads(params, n.cfg.ClipNorm)
		}
		opt.Step(params)
		n.InvalidateTransposes()
		return total / float64(len(batch))
	}
	n.beginStep(batch, scale, targets)
	per := len(batch)
	if c.split() {
		per = samplesPerTask
	}
	n.step.per = per
	c.run(n.rowTask, (len(batch)+per-1)/per)
	c.run(n.gradTask, len(n.ranges))
	for _, e := range n.step.errSq[:len(batch)] {
		total += e
	}
	n.step.batch, n.step.targets = nil, nil
	n.step.clip = 0
	if n.cfg.ClipNorm > 0 {
		if norm := nn.GradNorm(params); norm > n.cfg.ClipNorm && norm > 0 {
			n.step.clip = n.cfg.ClipNorm / norm
		}
	}
	opt.Begin(params)
	n.step.opt = opt
	c.run(n.updateTask, len(n.ranges))
	n.step.opt = nil
	for _, r := range n.ranges {
		if r.o0 == 0 {
			r.mlp.Layers[r.layer].SetTransposeCurrent()
		}
	}
	return total / float64(len(batch))
}

// InvalidateTransposes marks all cached layer transposes stale. TrainBatch
// calls it after every optimizer step; callers mutating weights directly
// (e.g. snapshot restores) must call it themselves.
func (n *QNetwork) InvalidateTransposes() {
	for _, ae := range n.aes {
		ae.Enc.InvalidateTransposes()
		ae.Dec.InvalidateTransposes()
	}
	for _, sub := range n.subs {
		sub.InvalidateTransposes()
	}
}

// beginStep takes the shared-weight step's buffers from the arena and
// opens both batched passes on them. Row ordering everywhere is sample-major
// with remote groups ascending, which makes every parameter tensor receive
// per-sample contributions in exactly the order the per-sample path would
// produce.
func (n *QNetwork) beginStep(batch []TrainItem, scale float64, targets func(worker, b0, b1 int)) {
	B := len(batch)
	K := n.enc.K()
	ws := n.ws
	ws.Reset()
	st := &n.step
	st.batch, st.scale, st.targets = batch, scale, targets
	if n.cfg.UseAutoencoder {
		st.aeIn = ws.TakeMatUninit(B*(K-1), n.enc.GroupDim())
		st.dCodes = ws.TakeMatUninit(B*(K-1), n.codeD)
		// The encoder is the graph's input layer: nothing consumes dL/dX.
		n.aes[0].Enc.BeginBatch(ws, st.aeIn, &n.aeTape, false)
	}
	st.in = ws.TakeMatUninit(B, n.inDim())
	st.dOut = ws.TakeMatUninit(B, n.enc.GroupSize()+1)
	n.subs[0].BeginBatch(ws, st.in, &n.subTape, n.cfg.UseAutoencoder)
	if cap(st.errSq) < B {
		st.errSq = make([]float64, B)
	}
}

// trainRows is task t of the split forward and backward passes: samples
// [t·per, (t+1)·per) through the encoder, the Sub-Q head, the dueling loss
// and back again, every layer's rows of pre-activation and input gradient.
// Parameter gradients wait for gradPart, once every row is back.
func (n *QNetwork) trainRows(worker, t int) {
	st := &n.step
	b0 := t * st.per
	b1 := min(b0+st.per, len(st.batch))
	K := n.enc.K()
	G := n.enc.GroupSize()
	gd := n.enc.GroupDim()
	jd := n.enc.JobDim()
	a0, a1 := b0*(K-1), b1*(K-1) // the samples' encoder rows
	if st.targets != nil {
		st.targets(worker, b0, b1)
	}

	var codes *mat.Dense
	if n.cfg.UseAutoencoder {
		idx := a0
		for _, item := range st.batch[b0:b1] {
			k := n.enc.GroupOf(item.Action)
			for kp := 0; kp < K; kp++ {
				if kp == k {
					continue
				}
				st.aeIn.Row(idx).CopyFrom(item.S.Group(kp))
				idx++
			}
		}
		codes = n.aes[0].Enc.ForwardRows(&n.aeTape, a0, a1)
	}

	remote := n.remoteBuf[worker]
	idx := a0
	for b := b0; b < b1; b++ {
		item := st.batch[b]
		k := n.enc.GroupOf(item.Action)
		for kp := 0; kp < K; kp++ {
			if kp == k {
				continue
			}
			if n.cfg.UseAutoencoder {
				remote[kp] = codes.Row(idx)
				idx++
			} else {
				remote[kp] = item.S.Group(kp)
			}
		}
		n.fillHeadInput(st.in.Row(b), k, item.S, remote)
	}
	raw := n.subs[0].ForwardRows(&n.subTape, b0, b1)

	gs := float64(G)
	for b := b0; b < b1; b++ {
		item := st.batch[b]
		o := n.enc.OffsetOf(item.Action)
		rawRow := raw.Row(b)
		v := rawRow[0]
		adv := mat.Vec(rawRow[1:])
		meanA := adv.Mean()
		q := v + adv[o] - meanA
		err := q - item.Target
		st.errSq[b] = err * err
		g := 2 * err * st.scale
		// Backprop through the dueling combination: dQ_o/dV = 1,
		// dQ_o/dA_{o'} = delta_{o o'} - 1/G.
		dRow := st.dOut.Row(b)
		dRow[0] = g
		for op := 0; op < G; op++ {
			if op == o {
				dRow[1+op] = g * (1 - 1/gs)
			} else {
				dRow[1+op] = g * (-1 / gs)
			}
		}
	}
	dIn := n.subs[0].BackwardRows(&n.subTape, st.dOut, b0, b1)

	if n.cfg.UseAutoencoder {
		base := gd + jd
		idx := a0
		for b := b0; b < b1; b++ {
			k := n.enc.GroupOf(st.batch[b].Action)
			seg := 0
			dRow := dIn.Row(b)
			for kp := 0; kp < K; kp++ {
				if kp == k {
					continue
				}
				copy(st.dCodes.Row(idx), dRow[base+seg*n.codeD:base+(seg+1)*n.codeD])
				idx++
				seg++
			}
		}
		n.aes[0].Enc.BackwardRows(&n.aeTape, st.dCodes, a0, a1)
	}
}

// gradPart is task t of the split weight-gradient pass: it zeroes one range
// of a layer's output neurons and adds their gradient over every sample,
// samples ascending.
func (n *QNetwork) gradPart(_, t int) {
	r := n.ranges[t]
	l := r.mlp.Layers[r.layer]
	clear(l.GW.Data[r.o0*l.In : r.o1*l.In])
	clear(l.GB[r.o0:r.o1])
	r.mlp.GradRows(r.tape, r.layer, r.o0, r.o1)
}

// updatePart is task t of the split update: the clip rescale and the Adam
// step of one range of a layer's output neurons — their weight rows and
// biases — and then those rows of the layer's cached transpose.
func (n *QNetwork) updatePart(_, t int) {
	r := n.ranges[t]
	l := r.mlp.Layers[r.layer]
	n.update(r.p, r.o0*l.In, r.o1*l.In)
	n.update(r.p+1, r.o0, r.o1)
	l.TransposeRows(r.o0, r.o1)
}

// update rescales elements [lo, hi) of Params()[i]'s gradient by the clip
// factor, if any, and applies the Adam step to them.
func (n *QNetwork) update(i, lo, hi int) {
	if clip := n.step.clip; clip != 0 {
		g := n.params[i].Grad[lo:hi]
		for j := range g {
			g[j] *= clip
		}
	}
	n.step.opt.StepRange(n.params, i, lo, hi)
}

// accumulate adds one item's gradient contribution (scaled) and returns its
// squared error. This is the per-sample reference path: the batched path
// must (and is tested to) reproduce it bitwise.
func (n *QNetwork) accumulate(item TrainItem, scale float64) float64 {
	k := n.enc.GroupOf(item.Action)
	o := n.enc.OffsetOf(item.Action)

	// Forward remote features with backprop capture, indexed by group.
	remote := make([]mat.Vec, n.enc.K())
	backs := make([]func(mat.Vec) mat.Vec, n.enc.K())
	for kp := 0; kp < n.enc.K(); kp++ {
		if kp == k {
			continue
		}
		if n.cfg.UseAutoencoder {
			remote[kp], backs[kp] = n.aeFor(kp).Encode(item.S.Group(kp))
		} else {
			remote[kp] = item.S.Group(kp)
		}
	}
	in := n.headInput(k, item.S, remote)
	raw, subBack := n.subFor(k).Forward(in)
	q := duel(raw)

	err := q[o] - item.Target
	g := 2 * err * scale
	// Backprop through the dueling combination: dQ_o/dV = 1,
	// dQ_o/dA_{o'} = delta_{o o'} - 1/G.
	dOut := mat.NewVec(len(raw))
	dOut[0] = g
	gs := float64(n.enc.GroupSize())
	for op := 0; op < n.enc.GroupSize(); op++ {
		if op == o {
			dOut[1+op] = g * (1 - 1/gs)
		} else {
			dOut[1+op] = g * (-1 / gs)
		}
	}
	dIn := subBack(dOut)

	// Route gradients into the remote encoders. Input layout:
	// [g_k | job | remote features in ascending kp order].
	if n.cfg.UseAutoencoder {
		base := n.enc.GroupDim() + n.enc.JobDim()
		idx := 0
		for kp := 0; kp < n.enc.K(); kp++ {
			if kp == k {
				continue
			}
			seg := mat.Vec(dIn[base+idx*n.codeD : base+(idx+1)*n.codeD])
			backs[kp](seg)
			idx++
		}
	}
	return err * err
}

// PretrainAutoencoder trains the autoencoder(s) on group-state samples with
// the reconstruction objective (the offline representation-learning phase).
// It returns the final epoch's mean loss; it is a no-op (returning 0) when
// the autoencoder path is disabled. Each epoch's minibatch runs through the
// batched autoencoder trainer.
func (n *QNetwork) PretrainAutoencoder(samples []mat.Vec, epochs, batchSize int, lr float64, rng *mat.RNG) float64 {
	if !n.cfg.UseAutoencoder || len(samples) == 0 {
		return 0
	}
	if batchSize <= 0 || epochs <= 0 || lr <= 0 {
		panic(fmt.Sprintf("global: bad AE pretrain params epochs=%d batch=%d lr=%v",
			epochs, batchSize, lr))
	}
	var last float64
	for _, ae := range n.aes {
		opt := nn.NewAdam(lr)
		for e := 0; e < epochs; e++ {
			batch := make([]mat.Vec, 0, batchSize)
			for b := 0; b < batchSize; b++ {
				batch = append(batch, samples[rng.Intn(len(samples))])
			}
			last = ae.TrainBatch(batch, opt, n.cfg.ClipNorm)
		}
	}
	return last
}

// Params enumerates the trainable parameters of the online Q path (encoder
// weights plus Sub-Q heads; decoder weights train only in
// PretrainAutoencoder). The enumeration is cached: the tensors are fixed at
// construction, so repeated calls (one per training step) return the same
// slice without allocating.
func (n *QNetwork) Params() []nn.Param {
	if n.params == nil {
		for i, ae := range n.aes {
			for _, p := range ae.Enc.Params() {
				p.Name = fmt.Sprintf("ae%d.%s", i, p.Name)
				n.params = append(n.params, p)
			}
		}
		for i, sub := range n.subs {
			for _, p := range sub.Params() {
				p.Name = fmt.Sprintf("subq%d.%s", i, p.Name)
				n.params = append(n.params, p)
			}
		}
	}
	return n.params
}

// NumParams returns the scalar parameter count of the online Q path.
func (n *QNetwork) NumParams() int {
	total := 0
	for _, ae := range n.aes {
		total += ae.Enc.NumParams()
	}
	for _, sub := range n.subs {
		total += sub.NumParams()
	}
	return total
}

// CopyWeightsFrom copies all weights (including decoders) from src. Used for
// target-network synchronization; the two networks must share configuration.
func (n *QNetwork) CopyWeightsFrom(src *QNetwork) {
	if len(n.aes) != len(src.aes) || len(n.subs) != len(src.subs) {
		panic("global: CopyWeightsFrom structure mismatch")
	}
	for i := range n.aes {
		n.aes[i].CopyWeightsFrom(src.aes[i])
	}
	for i := range n.subs {
		n.subs[i].CopyWeightsFrom(src.subs[i])
	}
}
