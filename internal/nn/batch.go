package nn

import (
	"fmt"

	"hierdrl/internal/mat"
)

// Batched layer application: one minibatch flows through each layer as a
// single B×In · Inᵀ×Out GEMM instead of B separate GEMV calls. Row b of
// every batched result is bitwise identical to the per-sample path applied
// to row b (the mat kernels guarantee per-element accumulation order), so
// the batched and scalar code paths are interchangeable — the batched ones
// are just faster and allocate O(layers) large buffers instead of
// O(batch·layers) small ones.

// InferBatch computes Y = act(X·Wᵀ + b) for a whole minibatch without
// capturing backprop state. X is B×In, Y must be B×Out; no scratch is
// needed, so with caller-owned X and Y the call is allocation-free.
func (d *Dense) InferBatch(X, Y *mat.Dense) {
	if X.Cols != d.In || Y.Cols != d.Out || X.Rows != Y.Rows {
		panic(fmt.Sprintf("nn: Dense.InferBatch shapes X=%dx%d Y=%dx%d want In=%d Out=%d",
			X.Rows, X.Cols, Y.Rows, Y.Cols, d.In, d.Out))
	}
	mat.MulMatTWithBT(X, d.W, d.transposedW(), Y)
	for b := 0; b < Y.Rows; b++ {
		mat.AddScaled(Y.Row(b), 1, d.B)
	}
	applyAct(d.Act, Y.Data, Y.Data)
}

// forwardBatchSaved is the batched training forward: pre = X·Wᵀ + b and
// Y = act(pre), both taken from ws and handed back so the caller keeps the
// backprop state instead of a closure capturing it. X is not copied: it must
// stay untouched — and ws un-Reset — until the matching backwardBatchSaved
// has run.
func (d *Dense) forwardBatchSaved(ws *mat.Workspace, X *mat.Dense) (pre, Y *mat.Dense) {
	if X.Cols != d.In {
		panic(fmt.Sprintf("nn: Dense batched forward input width %d want %d", X.Cols, d.In))
	}
	pre = ws.TakeMatUninit(X.Rows, d.Out)
	mat.MulMatTWithBT(X, d.W, d.transposedW(), pre)
	for b := 0; b < pre.Rows; b++ {
		mat.AddScaled(pre.Row(b), 1, d.B)
	}
	Y = ws.TakeMatUninit(X.Rows, d.Out)
	applyAct(d.Act, pre.Data, Y.Data)
	return pre, Y
}

// backwardBatchSaved replays the backward pass from the buffers of
// forwardBatchSaved: GW += dPreᵀ·X and GB += Σ dPre with samples in ascending
// order, and — unless needDX is false, for a layer whose input gradient
// nobody consumes — returns dL/dX = dPre·W (else nil). Scratch comes from ws.
func (d *Dense) backwardBatchSaved(ws *mat.Workspace, X, pre, Y, dY *mat.Dense, needDX bool) *mat.Dense {
	if dY.Rows != X.Rows || dY.Cols != d.Out {
		panic(fmt.Sprintf("nn: Dense batched backward grad %dx%d want %dx%d",
			dY.Rows, dY.Cols, X.Rows, d.Out))
	}
	dPre := ws.TakeMatUninit(dY.Rows, d.Out)
	applyActDeriv(d.Act, dY.Data, pre.Data, Y.Data, dPre.Data)
	mat.AddMulTMat(dPre, X, d.GW)
	for b := 0; b < dPre.Rows; b++ {
		mat.AddScaled(d.GB, 1, dPre.Row(b))
	}
	if !needDX {
		return nil
	}
	dX := ws.TakeMatUninit(dY.Rows, d.In)
	mat.MulMat(dPre, d.W, dX)
	return dX
}

// InferBatchWS runs the whole network on a minibatch using ws for every
// intermediate, returning the B×Out output matrix (valid until the next ws
// Reset). Steady-state calls are allocation-free.
func (m *MLP) InferBatchWS(ws *mat.Workspace, X *mat.Dense) *mat.Dense {
	h := X
	for _, l := range m.Layers {
		out := ws.TakeMatUninit(h.Rows, l.Out)
		l.InferBatch(h, out)
		h = out
	}
	return h
}

// InferWS runs the network on a single input using ws for every
// intermediate, returning the output vector (valid until the next ws Reset).
// Steady-state calls are allocation-free.
func (m *MLP) InferWS(ws *mat.Workspace, x mat.Vec) mat.Vec {
	h := x
	for _, l := range m.Layers {
		out := ws.TakeUninit(l.Out)
		l.InferFast(h, out)
		h = out
	}
	return h
}

// BatchTape holds the backprop state of one batched forward pass through an
// MLP — per layer its input, pre-activation and output — between
// ForwardBatchWS and BackwardBatchWS: the caller keeps one tape per network
// and reuses it every step, so a warm training step allocates nothing.
type BatchTape struct {
	layers []struct{ x, pre, y *mat.Dense }
}

// ForwardBatchWS runs the network on a minibatch with scratch taken from ws,
// recording the backprop state in tape, and returns the B×Out output. X is
// not copied: neither it nor ws may be touched or Reset until BackwardBatchWS
// has consumed the tape.
func (m *MLP) ForwardBatchWS(ws *mat.Workspace, X *mat.Dense, tape *BatchTape) *mat.Dense {
	if len(tape.layers) != len(m.Layers) {
		tape.layers = make([]struct{ x, pre, y *mat.Dense }, len(m.Layers))
	}
	h := X
	for i, l := range m.Layers {
		t := &tape.layers[i]
		t.x = h
		t.pre, t.y = l.forwardBatchSaved(ws, h)
		h = t.y
	}
	return h
}

// BackwardBatchWS backpropagates dY through the pass recorded in tape,
// accumulating every layer's parameter gradients, and returns dL/dX. With
// needInputDX false the first layer skips computing dL/dX and nil is
// returned — use when nothing upstream consumes the input gradient.
func (m *MLP) BackwardBatchWS(ws *mat.Workspace, tape *BatchTape, dY *mat.Dense, needInputDX bool) *mat.Dense {
	g := dY
	for i := len(m.Layers) - 1; i >= 0; i-- {
		t := &tape.layers[i]
		g = m.Layers[i].backwardBatchSaved(ws, t.x, t.pre, t.y, g, i > 0 || needInputDX)
	}
	return g
}
