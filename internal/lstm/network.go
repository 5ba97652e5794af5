package lstm

import (
	"fmt"

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
	cellIn     mat.Dense // steps × CellIn
	outBuf     mat.Vec

	tape bpttTape // training scratch, see bpttTape

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
		in:   nn.NewDense(1, cfg.CellIn, nn.Tanh, rng),
		cell: NewCell(cfg.CellIn, cfg.Hidden, rng),
		out:  nn.NewDense(cfg.Hidden, 1, nn.Identity, rng),
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
		n.outBuf = mat.NewVec(1)
	}
	// The input layer has no recurrence: every step's cell input at once.
	steps, in := len(window), n.cfg.CellIn
	if n.cellIn.Rows != steps {
		n.cellIn = *mat.NewDense(steps, in)
	}
	n.in.InferBatch(&mat.Dense{Rows: steps, Cols: 1, Data: window}, &n.cellIn)
	st := n.inferState
	st.H.Zero()
	st.C.Zero()
	for t := 0; t < steps; t++ {
		n.cell.StepInfer(n.cellIn.Row(t), st, st, n.inferBuf)
	}
	n.out.InferFast(st.H, n.outBuf)
	return n.outBuf[0]
}

// bpttTape is the training scratch of one network, sized on first use for a
// window length and reused by every later sample of that length, so
// steady-state training allocates nothing. It stores only what the backward
// pass reads: the activations' derivatives need the outputs, never the
// pre-activations, and h is the next step's z.
//
// x, cellIn, dIn, z and gates feed the deferred gradient and hold step t in
// row steps−1−t: time descending, the order in which the closure unroll adds
// its rank-1 updates to every gradient element (DESIGN.md §7). c and tanhC
// are only read step by step and run forward in time; c row 0 is the all-zero
// initial state (never written), row t+1 the state after step t.
type bpttTape struct {
	x, cellIn, dIn mat.Dense // steps × 1, × CellIn, × CellIn
	z              mat.Dense // steps × (CellIn+Hidden): [cellIn; hPrev]
	gates          mat.Dense // steps × 4·Hidden, F|I|G|O; the backward pass turns each row into its dPre
	c, tanhC       mat.Dense // (steps+1) × Hidden, steps × Hidden

	dz, dzTmp      mat.Vec // CellIn+Hidden
	hFinal, dH, dC mat.Vec // Hidden
	pred, dOut     mat.Vec // 1
}

// ensureTape sizes the tape for a window of the given length; every matrix
// and vector is cut from one block.
func (n *Network) ensureTape(steps int) *bpttTape {
	tp := &n.tape
	if tp.x.Rows == steps {
		return tp
	}
	in, hid := n.cfg.CellIn, n.cfg.Hidden
	k := in + hid
	block := mat.NewVec(steps*(1+2*in+k+6*hid) + hid + 2*k + 3*hid + 2)
	take := func(size int) mat.Vec {
		v := block[:size:size]
		block = block[size:]
		return v
	}
	dense := func(rows, cols int) mat.Dense {
		return mat.Dense{Rows: rows, Cols: cols, Data: take(rows * cols)}
	}
	*tp = bpttTape{
		x: dense(steps, 1), cellIn: dense(steps, in), dIn: dense(steps, in),
		z: dense(steps, k), gates: dense(steps, 4*hid),
		c: dense(steps+1, hid), tanhC: dense(steps, hid),
		dz: take(k), dzTmp: take(k),
		hFinal: take(hid), dH: take(hid), dC: take(hid),
		pred: take(1), dOut: take(1),
	}
	return tp
}

// BPTT runs one forward+backward pass for a single (window, target) sample,
// accumulating gradients (scaled by weight) into the network parameters and
// returning the squared prediction error.
//
// Each time step is one product of [cellIn; hPrev] against the fused gate
// block, the input gradient four products (one per gate, added in F, I, G, O
// order), and the gates' weight and bias gradients are deferred: every step's
// dPre and z rows stay on the tape and one rank-T update per tensor applies
// them after the loop. Every parameter gradient, and hence every trained
// weight, is bit for bit what the closure unroll over Cell.Step accumulates;
// lstm_test asserts it and DESIGN.md §7 has the argument. A warm call
// performs no heap allocation.
//
// BPTT reads the cached weight transposes: call InvalidateTransposes after
// mutating weights through Params (e.g. an optimizer step).
func (n *Network) BPTT(window []float64, target, weight float64) float64 {
	steps := len(window)
	if steps == 0 {
		panic("lstm: BPTT empty window")
	}
	tp := n.ensureTape(steps)
	in, hid := n.cfg.CellIn, n.cfg.Hidden
	cell := n.cell

	// The input layer has no recurrence: all steps in one batched pass.
	for t, v := range window {
		tp.x.Data[steps-1-t] = v
	}
	n.in.InferBatch(&tp.x, &tp.cellIn)

	// Forward unroll. h lands directly in the next step's z row.
	wt := cell.transposedW()
	clear(tp.z.Row(steps - 1)[in:])
	for t := 0; t < steps; t++ {
		r := steps - 1 - t
		z, gates := tp.z.Row(r), tp.gates.Row(r)
		copy(z[:in], tp.cellIn.Row(r))
		mat.MulVecWithBT(cell.w, wt, z, gates)
		mat.AddScaled(gates, 1, cell.b)
		cell.activate(gates, gates)
		f, i, g, o := gates[:hid], gates[hid:2*hid], gates[2*hid:3*hid], gates[3*hid:]
		cPrev, c, tanhC := tp.c.Row(t), tp.c.Row(t+1), tp.tanhC.Row(t)
		for k := range c {
			c[k] = f[k]*cPrev[k] + i[k]*g[k]
		}
		mat.Tanh(c, tanhC)
		h := tp.hFinal
		if r > 0 {
			h = tp.z.Row(r - 1)[in:]
		}
		for k := range h {
			h[k] = o[k] * tanhC[k]
		}
	}

	// Output layer and loss gradient: d(weight·err²)/dpred = 2·weight·err.
	n.out.Infer(tp.hFinal, tp.pred)
	err := tp.pred[0] - target
	tp.dOut[0] = 2 * weight * err
	n.out.GW.AddOuter(tp.dOut, tp.hFinal)
	n.out.GB.Add(tp.dOut)
	n.out.W.MulVecT(tp.dOut, tp.dH)
	tp.dC.Zero()

	// Backward through time. Each gates row is overwritten by its dPre, so
	// after the loop tp.gates is the dPre matrix.
	gateW := [4]*mat.Dense{cell.forget.W, cell.input.W, cell.cand.W, cell.output.W}
	dH, dC := tp.dH, tp.dC
	for t := steps - 1; t >= 0; t-- {
		r := steps - 1 - t
		gates := tp.gates.Row(r)
		f, i, g, o := gates[:hid], gates[hid:2*hid], gates[2*hid:3*hid], gates[3*hid:]
		cPrev, tanhC := tp.c.Row(t), tp.tanhC.Row(t)
		for k := range dH {
			fk, ik, gk, ok := f[k], i[k], g[k], o[k]
			dO := dH[k] * tanhC[k]
			dCTotal := dH[k]*ok*(1-tanhC[k]*tanhC[k]) + dC[k]
			dF := dCTotal * cPrev[k]
			dI := dCTotal * gk
			dG := dCTotal * ik
			dC[k] = dCTotal * fk
			f[k] = dF * (fk * (1 - fk))
			i[k] = dI * (ik * (1 - ik))
			g[k] = dG * (1 - gk*gk)
			o[k] = dO * (ok * (1 - ok))
		}
		gateW[0].MulVecT(f, tp.dz)
		for j, dPre := range [3]mat.Vec{i, g, o} {
			gateW[j+1].MulVecT(dPre, tp.dzTmp)
			tp.dz.Add(tp.dzTmp)
		}
		copy(tp.dIn.Row(r), tp.dz[:in])
		copy(dH, tp.dz[in:])
	}

	// Deferred parameter gradients, rows in descending time. The input
	// layer's dPre is its tanh derivative times the dz rows saved above.
	for j, y := range tp.cellIn.Data {
		tp.dIn.Data[j] *= 1 - y*y
	}
	mat.AddMulTMat(&tp.dIn, &tp.x, n.in.GW)
	mat.AddMulTMat(&tp.gates, &tp.z, cell.gw)
	for r := 0; r < steps; r++ {
		n.in.GB.Add(tp.dIn.Row(r))
		mat.AddScaled(cell.gb, 1, tp.gates.Row(r))
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
