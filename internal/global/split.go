package global

import (
	"hierdrl/internal/mat"
	"hierdrl/internal/nn"
)

// Task sizes of the split training step. A task is a few microseconds of
// work: long enough that claiming it (one compare-and-swap) is noise, short
// enough that a helper arriving late still finds tasks left, and that the
// caller's wait for the helper's last one stays short.
const (
	samplesPerTask = 4     // target values, forward and backward passes
	gradTaskMACs   = 48000 // weight-gradient multiply-adds per task
)

// stepBufs is what the task bodies of the step in progress read: the
// minibatch, its target callback and the shared buffers its rows fill, the
// clip factor and the optimizer.
type stepBufs struct {
	batch   []TrainItem
	targets func(worker, b0, b1 int)
	per     int // samples per row task
	scale   float64
	aeIn    *mat.Dense
	dCodes  *mat.Dense
	in      *mat.Dense
	dOut    *mat.Dense
	errSq   []float64

	clip float64 // gradient rescale factor, 0 when the norm is within ClipNorm
	opt  *nn.Adam
}

// layerRange is one task of the gradient and update phases: output neurons
// [o0, o1) of one layer of one network, whose weights and bias are
// Params()[p] and Params()[p+1]. Both phases hand a range to the same end of
// the claim order, so the worker that writes a range's gradient usually
// updates it too.
type layerRange struct {
	mlp      *nn.MLP
	tape     *nn.BatchTape
	layer, p int
	o0, o1   int
}

// bindTasks binds the task bodies and lays out the neuron ranges of the
// shared-weight networks, about gradTaskMACs multiply-adds of gradient each
// at a full minibatch, in multiples of the GEMM tile's four rows. The layout
// depends only on the architecture and the minibatch size, so it is fixed
// for the network's life.
func (n *QNetwork) bindTasks() {
	n.rowTask = n.trainRows
	n.gradTask = n.gradPart
	n.updateTask = n.updatePart
	if !n.cfg.ShareWeights {
		return
	}
	p := 0 // Params() is each layer's W then b, encoder first
	add := func(m *nn.MLP, tape *nn.BatchTape, rows int) {
		for i, l := range m.Layers {
			cost := max(rows, 1) * l.In * l.Out
			tasks := (cost + gradTaskMACs - 1) / gradTaskMACs
			size := ((l.Out+tasks-1)/tasks + 3) &^ 3
			for o := 0; o < l.Out; o += size {
				n.ranges = append(n.ranges, layerRange{m, tape, i, p, o, min(o+size, l.Out)})
			}
			p += 2
		}
	}
	if n.cfg.UseAutoencoder {
		add(n.aes[0].Enc, &n.aeTape, n.cfg.MiniBatch*(n.enc.K()-1))
	}
	add(n.subs[0], &n.subTape, n.cfg.MiniBatch)
}

// sizeTargetArenas grows both workers' arenas to the high-water mark of a
// split row task's target pass before the first training step. Otherwise the
// helper's arena would grow during the first split step in which it wins a
// row task, so whether a warm step allocates would depend on the schedule.
// Each worker's pass runs over zero states until its arena stops growing;
// the passes write only scratch and the cached transposes, which a stale
// cache rebuilds from the same weights anyway.
func (n *QNetwork) sizeTargetArenas() {
	if !n.cfg.ShareWeights {
		return
	}
	states := make([]State, min(samplesPerTask, n.cfg.MiniBatch))
	for i := range states {
		states[i] = n.enc.NewState()
	}
	vals := make([]float64, len(states))
	for worker, ws := range [2]*mat.Workspace{n.ws, n.helperWS} {
		for size := -1; size != ws.Cap(); {
			size = ws.Cap()
			n.maxQFor(worker, states, vals)
		}
	}
}
