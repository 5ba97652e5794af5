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

// forwardRows computes rows [r0, r1) of pre = X·Wᵀ + b and Y = act(pre).
// Rows of a batch never meet, so each row holds what the whole-batch forward
// computes for it, bit for bit. The cached Wᵀ must be current before rows
// run concurrently (MLP.BeginBatch builds it).
func (d *Dense) forwardRows(X, pre, Y *mat.Dense, r0, r1 int) {
	if X.Cols != d.In {
		panic(fmt.Sprintf("nn: Dense batched forward input width %d want %d", X.Cols, d.In))
	}
	if r0 == r1 {
		return
	}
	x, p, y := X.Slice(r0, r1), pre.Slice(r0, r1), Y.Slice(r0, r1)
	mat.MulMatTWithBT(&x, d.W, d.transposedW(), &p)
	for b := 0; b < p.Rows; b++ {
		mat.AddScaled(p.Row(b), 1, d.B)
	}
	applyAct(d.Act, p.Data, y.Data)
}

// backwardRows computes rows [r0, r1) of dPre = dY ⊙ act'(pre) and, unless
// dX is nil (a layer whose input gradient nobody consumes), of
// dL/dX = dPre·W.
func (d *Dense) backwardRows(dY, pre, Y, dPre, dX *mat.Dense, r0, r1 int) {
	if dY.Rows != pre.Rows || dY.Cols != d.Out {
		panic(fmt.Sprintf("nn: Dense batched backward grad %dx%d want %dx%d",
			dY.Rows, dY.Cols, pre.Rows, d.Out))
	}
	if r0 == r1 {
		return
	}
	g, p, y, dp := dY.Slice(r0, r1), pre.Slice(r0, r1), Y.Slice(r0, r1), dPre.Slice(r0, r1)
	applyActDeriv(d.Act, g.Data, p.Data, y.Data, dp.Data)
	if dX != nil {
		dx := dX.Slice(r0, r1)
		mat.MulMat(&dp, d.W, &dx)
	}
}

// gradRows adds output neurons [o0, o1) of GW += dPreᵀ·X and GB += Σ dPre,
// samples in ascending order: each gradient element receives the terms of the
// whole-layer update in the same order, and no other element is touched.
func (d *Dense) gradRows(X, dPre *mat.Dense, o0, o1 int) {
	mat.AddMulTMatRows(dPre, X, d.GW, o0, o1)
	if o0 == o1 {
		return
	}
	for b := 0; b < dPre.Rows; b++ {
		mat.AddScaled(d.GB[o0:o1], 1, dPre.Row(b)[o0:o1])
	}
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

// BatchTape holds the state of one batched training pass through an MLP —
// per layer its input, pre-activation, output, pre-activation gradient and
// input gradient — between the forward and backward calls: the caller keeps
// one tape per network and reuses it every step, so a warm training step
// allocates nothing.
type BatchTape struct {
	layers []tapeLayer
}

type tapeLayer struct{ x, pre, y, dPre, dX *mat.Dense }

// BeginBatch takes every buffer of a training pass over X's rows from ws into
// tape (X is not copied: neither it nor ws may be touched or Reset until the
// pass is over) and builds each layer's cached Wᵀ. After it, ForwardRows,
// BackwardRows and GradRows only write the rows or neurons they are given, so
// calls on disjoint ranges may run concurrently; every element they write
// holds the bits the whole-batch pass computes. With needInputDX false the
// first layer's dL/dX is not computed — for a network whose input gradient
// nobody consumes.
func (m *MLP) BeginBatch(ws *mat.Workspace, X *mat.Dense, tape *BatchTape, needInputDX bool) {
	if len(tape.layers) != len(m.Layers) {
		tape.layers = make([]tapeLayer, len(m.Layers))
	}
	h := X
	for i, l := range m.Layers {
		t := &tape.layers[i]
		t.x = h
		t.pre = ws.TakeMatUninit(X.Rows, l.Out)
		t.y = ws.TakeMatUninit(X.Rows, l.Out)
		t.dPre = ws.TakeMatUninit(X.Rows, l.Out)
		t.dX = nil
		if i > 0 || needInputDX {
			t.dX = ws.TakeMatUninit(X.Rows, l.In)
		}
		l.transposedW()
		h = t.y
	}
}

// ForwardRows runs rows [r0, r1) of the pass begun on tape through every
// layer and returns the whole output matrix.
func (m *MLP) ForwardRows(tape *BatchTape, r0, r1 int) *mat.Dense {
	for i, l := range m.Layers {
		t := &tape.layers[i]
		l.forwardRows(t.x, t.pre, t.y, r0, r1)
	}
	return tape.layers[len(m.Layers)-1].y
}

// BackwardRows backpropagates rows [r0, r1) of dY through the pass begun on
// tape — every layer's pre-activation gradient and input gradient — and
// returns the whole dL/dX matrix (nil without needInputDX). It accumulates no
// parameter gradient: GradRows does, once every row is back.
func (m *MLP) BackwardRows(tape *BatchTape, dY *mat.Dense, r0, r1 int) *mat.Dense {
	g := dY
	for i := len(m.Layers) - 1; i >= 0; i-- {
		t := &tape.layers[i]
		m.Layers[i].backwardRows(g, t.pre, t.y, t.dPre, t.dX, r0, r1)
		g = t.dX
	}
	return tape.layers[0].dX
}

// GradRows adds output neurons [o0, o1) of layer i's parameter gradients from
// the rows BackwardRows left on tape: GW += dPreᵀ·X and GB += Σ dPre, samples
// in ascending order.
func (m *MLP) GradRows(tape *BatchTape, i, o0, o1 int) {
	t := &tape.layers[i]
	m.Layers[i].gradRows(t.x, t.dPre, o0, o1)
}

// ForwardBatchWS runs the network on a minibatch with scratch taken from ws,
// recording the backprop state in tape, and returns the B×Out output. X is
// not copied: neither it nor ws may be touched or Reset until BackwardBatchWS
// has consumed the tape.
func (m *MLP) ForwardBatchWS(ws *mat.Workspace, X *mat.Dense, tape *BatchTape) *mat.Dense {
	m.BeginBatch(ws, X, tape, true)
	return m.ForwardRows(tape, 0, X.Rows)
}

// BackwardBatchWS backpropagates dY through the pass recorded in tape,
// accumulating every layer's parameter gradients, and returns dL/dX. With
// needInputDX false the first layer skips computing dL/dX and nil is
// returned — use when nothing upstream consumes the input gradient.
func (m *MLP) BackwardBatchWS(tape *BatchTape, dY *mat.Dense, needInputDX bool) *mat.Dense {
	if !needInputDX {
		tape.layers[0].dX = nil
	}
	dX := m.BackwardRows(tape, dY, 0, dY.Rows)
	for i, l := range m.Layers {
		m.GradRows(tape, i, 0, l.Out)
	}
	return dX
}
