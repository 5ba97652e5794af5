package lstm

import (
	"fmt"
	"math"
	"slices"

	"hierdrl/internal/mat"
	"hierdrl/internal/nn"
)

// NetworkConfig configures the three-layer prediction network of Fig. 7:
// input hidden layer -> LSTM cell layer -> output hidden layer.
type NetworkConfig struct {
	// CellIn is the input size of the LSTM cell. The paper uses 1 (scalar
	// inter-arrival times).
	CellIn int
	// Hidden is the number of LSTM hidden units. The paper uses 30.
	Hidden int
	// InitStd is the standard deviation for the normal initialization of the
	// input/output hidden layers. The paper uses 1.0 with bias 0.1.
	InitStd float64
	// InitBias is the constant bias initialization. The paper uses 0.1.
	InitBias float64
}

// DefaultNetworkConfig returns the paper's settings.
func DefaultNetworkConfig() NetworkConfig {
	return NetworkConfig{CellIn: 1, Hidden: 30, InitStd: 1.0, InitBias: 0.1}
}

// Network is the full scalar-sequence regression model: it consumes a window
// of scalar observations and predicts the next one.
type Network struct {
	cfg NetworkConfig

	in   *nn.Dense // 1 -> CellIn, tanh ("input hidden layer")
	cell *Cell     // CellIn -> Hidden
	out  *nn.Dense // Hidden -> 1, linear ("output hidden layer")

	// Reusable inference scratch: Predict steps the same state and gate
	// buffers through the window instead of allocating per step. Lazily
	// built; a Network is not safe for concurrent use (each server's
	// predictor owns its own).
	inferBuf   *InferBuf
	inferState State
	xIn        mat.Vec
	cellIn     mat.Vec
	outBuf     mat.Vec

	// bptt holds the training scratch: per-step saved activations plus the
	// backward-pass work vectors. Sized on first use and reused for every
	// subsequent BPTT sample, so steady-state training allocates nothing.
	bptt bpttScratch

	// params caches the parameter enumeration (tensors are fixed at
	// construction; rebuilding the slice per optimizer round allocates).
	params []nn.Param
}

// NewNetwork builds the network described by cfg.
func NewNetwork(cfg NetworkConfig, rng *mat.RNG) *Network {
	if cfg.CellIn <= 0 || cfg.Hidden <= 0 {
		panic(fmt.Sprintf("lstm: NewNetwork invalid config %+v", cfg))
	}
	n := &Network{
		cfg:  cfg,
		in:   nn.NewDense(1, cfg.CellIn, nn.Tanh{}, rng),
		cell: NewCell(cfg.CellIn, cfg.Hidden, rng),
		out:  nn.NewDense(cfg.Hidden, 1, nn.Identity{}, rng),
	}
	// Paper Sec. VI-A: input/output layer weights ~ N(0, InitStd), biases
	// set to the constant InitBias; LSTM initial state all zeros.
	rng.FillNormal(n.in.W, 0, cfg.InitStd)
	n.in.B.Fill(cfg.InitBias)
	rng.FillNormal(n.out.W, 0, cfg.InitStd)
	n.out.B.Fill(cfg.InitBias)
	return n
}

// Predict runs the window through the recurrence and returns the model's
// estimate of the next value. No backprop state is captured; all scratch
// (state, gate buffers) is reused across steps and across calls, so
// steady-state prediction is allocation-free.
func (n *Network) Predict(window []float64) float64 {
	if n.inferBuf == nil {
		n.inferBuf = n.cell.NewInferBuf()
		n.inferState = n.cell.NewState()
		n.xIn = mat.NewVec(1)
		n.cellIn = mat.NewVec(n.cfg.CellIn)
		n.outBuf = mat.NewVec(1)
	}
	st := n.inferState
	st.H.Zero()
	st.C.Zero()
	for _, v := range window {
		n.xIn[0] = v
		n.in.InferFast(n.xIn, n.cellIn)
		n.cell.StepInfer(n.cellIn, st, st, n.inferBuf)
	}
	n.out.InferFast(st.H, n.outBuf)
	return n.outBuf[0]
}

// bpttStep holds one time step's saved activations: everything the backward
// pass reads. One set per step, reused across BPTT samples.
type bpttStep struct {
	x      mat.Vec // scalar network input, length 1
	inPre  mat.Vec // input-layer pre-activation (CellIn)
	cellIn mat.Vec // input-layer output = cell input (CellIn)
	z      mat.Vec // [cellIn ; hPrev] gate input (CellIn+Hidden)
	fPre   mat.Vec // gate pre-activations and outputs (Hidden each)
	f      mat.Vec
	iPre   mat.Vec
	i      mat.Vec
	gPre   mat.Vec
	g      mat.Vec
	oPre   mat.Vec
	o      mat.Vec
	c      mat.Vec // cell state after the step
	tanhC  mat.Vec
	h      mat.Vec // hidden state after the step
}

// bpttScratch is the full training scratch of one network: per-step saved
// activations plus the backward-pass work vectors.
type bpttScratch struct {
	steps []bpttStep
	zeroC mat.Vec // the all-zero initial cell state (never written)

	outPre, outY, dyOut, dPreOut mat.Vec // output-layer buffers (length 1)
	dxIn, dPreIn                 mat.Vec // input-layer backward scratch

	dH, dC, dO, dCTotal, dF, dI, dG, dCPrev mat.Vec // Hidden each
	dz, dzTmp, dPre                         mat.Vec // gate backward scratch
}

// ensureBPTT sizes the scratch for a window of the given length. The saved
// activations of all new steps are cut from one block, and so are the backward
// work vectors: two allocations per network instead of fifteen per time step
// (a cluster holds one network per server).
func (n *Network) ensureBPTT(steps int) {
	b := &n.bptt
	hidden := n.cfg.Hidden
	cellIn := n.cfg.CellIn
	var block mat.Vec
	take := func(size int) mat.Vec {
		v := block[:size:size]
		block = block[size:]
		return v
	}
	if grow := steps - len(b.steps); grow > 0 {
		block = mat.NewVec(grow * (1 + 3*cellIn + 12*hidden))
		b.steps = slices.Grow(b.steps, grow)
		for ; grow > 0; grow-- {
			b.steps = append(b.steps, bpttStep{
				x:      take(1),
				inPre:  take(cellIn),
				cellIn: take(cellIn),
				z:      take(cellIn + hidden),
				fPre:   take(hidden),
				f:      take(hidden),
				iPre:   take(hidden),
				i:      take(hidden),
				gPre:   take(hidden),
				g:      take(hidden),
				oPre:   take(hidden),
				o:      take(hidden),
				c:      take(hidden),
				tanhC:  take(hidden),
				h:      take(hidden),
			})
		}
	}
	if b.zeroC == nil {
		block = mat.NewVec(5 + 3*cellIn + 12*hidden)
		b.zeroC = take(hidden)
		b.outPre = take(1)
		b.outY = take(1)
		b.dyOut = take(1)
		b.dPreOut = take(1)
		b.dxIn = take(1)
		b.dPreIn = take(cellIn)
		b.dH = take(hidden)
		b.dC = take(hidden)
		b.dO = take(hidden)
		b.dCTotal = take(hidden)
		b.dF = take(hidden)
		b.dI = take(hidden)
		b.dG = take(hidden)
		b.dCPrev = take(hidden)
		b.dz = take(cellIn + hidden)
		b.dzTmp = take(cellIn + hidden)
		b.dPre = take(hidden)
	}
}

// BPTT runs one forward+backward pass for a single (window, target) sample,
// accumulating gradients (scaled by weight) into the network parameters and
// returning the squared prediction error.
//
// All activations are saved in reusable per-step buffers and the backward
// pass walks them in place, so a warm call performs no heap allocation. The
// arithmetic — op for op, including the gate order F, I, G, O and the
// descending-time gradient accumulation — replays the closure-based
// reference unroll exactly, so every gradient (and therefore every trained
// weight) is bitwise identical to it; lstm_test asserts this.
func (n *Network) BPTT(window []float64, target, weight float64) float64 {
	if len(window) == 0 {
		panic("lstm: BPTT empty window")
	}
	n.ensureBPTT(len(window))
	b := &n.bptt
	in, hid := n.cfg.CellIn, n.cfg.Hidden

	// Forward unroll with saved activations.
	hPrev, cPrev := b.zeroC, b.zeroC
	for t, v := range window {
		st := &b.steps[t]
		st.x[0] = v
		n.in.ForwardSaved(st.x, st.inPre, st.cellIn)
		copy(st.z[:in], st.cellIn)
		copy(st.z[in:], hPrev)
		n.cell.forget.ForwardSaved(st.z, st.fPre, st.f)
		n.cell.input.ForwardSaved(st.z, st.iPre, st.i)
		n.cell.cand.ForwardSaved(st.z, st.gPre, st.g)
		n.cell.output.ForwardSaved(st.z, st.oPre, st.o)
		for k := 0; k < hid; k++ {
			st.c[k] = st.f[k]*cPrev[k] + st.i[k]*st.g[k]
		}
		for k := 0; k < hid; k++ {
			st.tanhC[k] = math.Tanh(st.c[k])
		}
		for k := 0; k < hid; k++ {
			st.h[k] = st.o[k] * st.tanhC[k]
		}
		hPrev, cPrev = st.h, st.c
	}

	// Output layer and loss gradient.
	final := &b.steps[len(window)-1]
	n.out.ForwardSaved(final.h, b.outPre, b.outY)
	err := b.outY[0] - target
	// d(weight * err^2)/dpred = 2*weight*err
	b.dyOut[0] = 2 * weight * err
	n.out.BackwardSaved(final.h, b.outPre, b.outY, b.dyOut, b.dPreOut, b.dH)
	b.dC.Zero()

	// Backward through time: per step the gates backpropagate in F, I, G, O
	// order, then the input layer — the exact parameter-gradient
	// accumulation sequence of the reference unroll.
	for t := len(window) - 1; t >= 0; t-- {
		st := &b.steps[t]
		cPrev := b.zeroC
		if t > 0 {
			cPrev = b.steps[t-1].c
		}
		for k := 0; k < hid; k++ {
			b.dO[k] = b.dH[k] * st.tanhC[k]
			b.dCTotal[k] = b.dH[k]*st.o[k]*(1-st.tanhC[k]*st.tanhC[k]) + b.dC[k]
		}
		for k := 0; k < hid; k++ {
			b.dF[k] = b.dCTotal[k] * cPrev[k]
			b.dI[k] = b.dCTotal[k] * st.g[k]
			b.dG[k] = b.dCTotal[k] * st.i[k]
			b.dCPrev[k] = b.dCTotal[k] * st.f[k]
		}
		n.cell.forget.BackwardSaved(st.z, st.fPre, st.f, b.dF, b.dPre, b.dz)
		n.cell.input.BackwardSaved(st.z, st.iPre, st.i, b.dI, b.dPre, b.dzTmp)
		b.dz.Add(b.dzTmp)
		n.cell.cand.BackwardSaved(st.z, st.gPre, st.g, b.dG, b.dPre, b.dzTmp)
		b.dz.Add(b.dzTmp)
		n.cell.output.BackwardSaved(st.z, st.oPre, st.o, b.dO, b.dPre, b.dzTmp)
		b.dz.Add(b.dzTmp)
		// Input layer: gradient w.r.t. the scalar input is discarded.
		n.in.BackwardSaved(st.x, st.inPre, st.cellIn, b.dz[:in], b.dPreIn, b.dxIn)
		copy(b.dH, b.dz[in:])
		b.dC, b.dCPrev = b.dCPrev, b.dC
	}
	return err * err
}

// InvalidateTransposes marks every cached weight transpose stale; call
// after mutating weights through Params (e.g. an optimizer step).
func (n *Network) InvalidateTransposes() {
	n.in.InvalidateTranspose()
	n.cell.InvalidateTransposes()
	n.out.InvalidateTranspose()
}

// Params enumerates every trainable parameter of the network. The
// enumeration is cached — the tensors are fixed at construction, and the
// online predictor asks for them once per training round.
func (n *Network) Params() []nn.Param {
	if n.params == nil {
		for _, p := range n.in.Params() {
			p.Name = "in." + p.Name
			n.params = append(n.params, p)
		}
		n.params = append(n.params, n.cell.Params()...)
		for _, p := range n.out.Params() {
			p.Name = "out." + p.Name
			n.params = append(n.params, p)
		}
	}
	return n.params
}

// NumParams returns the total scalar parameter count.
func (n *Network) NumParams() int {
	return n.in.NumParams() + n.cell.NumParams() + n.out.NumParams()
}
