// Package lstm implements the long short-term memory network used by the
// paper's local-tier workload predictor (Sec. VI-A): an input hidden layer,
// one LSTM cell layer whose weights are shared across all time steps, and an
// output hidden layer. Training uses truncated back-propagation through time
// (BPTT) with the Adam optimizer, exactly as the paper prescribes (look-back
// window of 35 inter-arrival times, 30 hidden units).
package lstm

import (
	"fmt"
	"math"

	"hierdrl/internal/mat"
	"hierdrl/internal/nn"
)

// Cell is a single LSTM cell. The four gate layers each map the concatenated
// [x; hPrev] vector to the hidden dimension. One Cell object is applied at
// every time step, which shares the weights across time (gradients
// accumulate across applications).
//
// The four gates' tensors are row bands F|I|G|O of one block each — weights
// and their gradient (4·Hidden)×(In+Hidden), biases and theirs 4·Hidden — so
// one product against the block evaluates all four pre-activations; element
// for element it is the four separate products, since every output element
// is its own sum. The gate layers are views of their bands, which is what
// Step, Params, the optimizer and the checkpoint walk see.
type Cell struct {
	In, Hidden int

	w, gw *mat.Dense
	b, gb mat.Vec

	forget *nn.Dense // sigmoid
	input  *nn.Dense // sigmoid
	cand   *nn.Dense // tanh
	output *nn.Dense // sigmoid

	// wt caches wᵀ for the AVX-512 paths of StepInfer and Network.BPTT,
	// under nn.Dense's rule: rebuilt lazily, and every code path that writes
	// the weights must call InvalidateTransposes.
	wt   *mat.Dense
	wtOK bool
}

// NewCell returns an LSTM cell with Xavier-initialized gate weights. The
// forget-gate bias starts at 1 (the standard trick that eases learning of
// long dependencies).
func NewCell(in, hidden int, rng *mat.RNG) *Cell {
	if in <= 0 || hidden <= 0 {
		panic(fmt.Sprintf("lstm: NewCell invalid dims in=%d hidden=%d", in, hidden))
	}
	k := in + hidden
	c := &Cell{
		In:     in,
		Hidden: hidden,
		w:      mat.NewDense(4*hidden, k),
		gw:     mat.NewDense(4*hidden, k),
		b:      mat.NewVec(4 * hidden),
		gb:     mat.NewVec(4 * hidden),
	}
	band := func(m *mat.Dense, g int) *mat.Dense {
		return &mat.Dense{Rows: hidden, Cols: k, Data: m.Data[g*hidden*k : (g+1)*hidden*k]}
	}
	gate := func(g int, act nn.Activation) *nn.Dense {
		d := &nn.Dense{
			In: k, Out: hidden, Act: act,
			W: band(c.w, g), B: c.b[g*hidden : (g+1)*hidden],
			GW: band(c.gw, g), GB: c.gb[g*hidden : (g+1)*hidden],
		}
		rng.FillXavier(d.W, k, hidden)
		return d
	}
	c.forget = gate(0, nn.Sigmoid)
	c.input = gate(1, nn.Sigmoid)
	c.cand = gate(2, nn.Tanh)
	c.output = gate(3, nn.Sigmoid)
	c.forget.B.Fill(1)
	return c
}

// transposedW returns the cached wᵀ, or nil when no kernel would read it.
func (c *Cell) transposedW() *mat.Dense {
	if !mat.BTUsable(c.w.Rows) {
		return nil
	}
	if !c.wtOK {
		if c.wt == nil {
			c.wt = mat.NewDense(c.w.Cols, c.w.Rows)
		}
		mat.TransposeInto(c.w, c.wt)
		c.wtOK = true
	}
	return c.wt
}

// activate turns one row of fused pre-activations (F|I|G|O, 4·Hidden) into
// the gate values, written to dst: sigmoid, sigmoid, tanh, sigmoid. pre and
// dst may be the same row.
func (c *Cell) activate(pre, dst mat.Vec) {
	h := c.Hidden
	mat.Sigmoid(pre[:2*h], dst[:2*h])
	mat.Tanh(pre[2*h:3*h], dst[2*h:3*h])
	mat.Sigmoid(pre[3*h:4*h], dst[3*h:4*h])
}

// State is the recurrent state (h, c) carried between time steps.
type State struct {
	H mat.Vec
	C mat.Vec
}

// NewState returns the zero initial state, as the paper specifies.
func (c *Cell) NewState() State {
	return State{H: mat.NewVec(c.Hidden), C: mat.NewVec(c.Hidden)}
}

// Clone returns an independent copy of the state.
func (s State) Clone() State {
	return State{H: s.H.Clone(), C: s.C.Clone()}
}

// StepBack undoes one step of the recurrence during BPTT: given the loss
// gradients with respect to this step's outputs (dH, dC), it returns the
// gradients with respect to the step inputs.
type StepBack func(dH, dC mat.Vec) (dx, dHPrev, dCPrev mat.Vec)

// Step advances the recurrence by one time step and returns the new state
// plus a backward closure. Gate parameter gradients accumulate in the cell.
func (c *Cell) Step(x mat.Vec, prev State) (State, StepBack) {
	if len(x) != c.In {
		panic(fmt.Sprintf("lstm: Step input length %d want %d", len(x), c.In))
	}
	z := mat.Concat(x, prev.H)

	f, backF := c.forget.Forward(z)
	i, backI := c.input.Forward(z)
	g, backG := c.cand.Forward(z) // candidate values, tanh
	o, backO := c.output.Forward(z)

	cNew := mat.NewVec(c.Hidden)
	for k := range cNew {
		cNew[k] = f[k]*prev.C[k] + i[k]*g[k]
	}
	tanhC := mat.NewVec(c.Hidden)
	for k := range tanhC {
		tanhC[k] = math.Tanh(cNew[k])
	}
	hNew := mat.NewVec(c.Hidden)
	for k := range hNew {
		hNew[k] = o[k] * tanhC[k]
	}

	cPrevSaved := prev.C.Clone()
	back := func(dH, dC mat.Vec) (dx, dHPrev, dCPrev mat.Vec) {
		if len(dH) != c.Hidden || len(dC) != c.Hidden {
			panic("lstm: StepBack gradient length mismatch")
		}
		dO := mat.NewVec(c.Hidden)
		dCTotal := mat.NewVec(c.Hidden)
		for k := range dH {
			dO[k] = dH[k] * tanhC[k]
			dCTotal[k] = dH[k]*o[k]*(1-tanhC[k]*tanhC[k]) + dC[k]
		}
		dF := mat.NewVec(c.Hidden)
		dI := mat.NewVec(c.Hidden)
		dG := mat.NewVec(c.Hidden)
		dCPrev = mat.NewVec(c.Hidden)
		for k := range dCTotal {
			dF[k] = dCTotal[k] * cPrevSaved[k]
			dI[k] = dCTotal[k] * g[k]
			dG[k] = dCTotal[k] * i[k]
			dCPrev[k] = dCTotal[k] * f[k]
		}
		dz := backF(dF)
		dz.Add(backI(dI))
		dz.Add(backG(dG))
		dz.Add(backO(dO))

		dx = mat.Vec(dz[:c.In]).Clone()
		dHPrev = mat.Vec(dz[c.In:]).Clone()
		return dx, dHPrev, dCPrev
	}
	return State{H: hNew, C: cNew}, back
}

// InferBuf holds the reusable gate buffers for inference-only stepping.
// One buffer set serves an entire Predict recurrence: the gates are
// recomputed every step, so the same vectors are overwritten 35 times
// instead of being reallocated 35 times.
type InferBuf struct {
	z, gates, tanhC mat.Vec
}

// NewInferBuf allocates gate buffers matching the cell's dimensions.
func (c *Cell) NewInferBuf() *InferBuf {
	return &InferBuf{
		z:     mat.NewVec(c.In + c.Hidden),
		gates: mat.NewVec(4 * c.Hidden),
		tanhC: mat.NewVec(c.Hidden),
	}
}

// StepInfer advances the recurrence one step without capturing backprop
// state, writing the new state into next. prev and next may be the same
// State (in-place stepping); buf is overwritten. The arithmetic is
// identical to Step, so the resulting state matches bitwise. It reads the
// cached transpose: call InvalidateTransposes after mutating gate weights.
func (c *Cell) StepInfer(x mat.Vec, prev, next State, buf *InferBuf) {
	if len(x) != c.In {
		panic(fmt.Sprintf("lstm: StepInfer input length %d want %d", len(x), c.In))
	}
	copy(buf.z[:c.In], x)
	copy(buf.z[c.In:], prev.H)

	mat.MulVecWithBT(c.w, c.transposedW(), buf.z, buf.gates)
	mat.AddScaled(buf.gates, 1, c.b)
	c.activate(buf.gates, buf.gates)

	h := c.Hidden
	f, i, g, o := buf.gates[:h], buf.gates[h:2*h], buf.gates[2*h:3*h], buf.gates[3*h:]
	for k := range f {
		next.C[k] = f[k]*prev.C[k] + i[k]*g[k]
	}
	mat.Tanh(next.C, buf.tanhC)
	for k, t := range buf.tanhC {
		next.H[k] = o[k] * t
	}
}

// InvalidateTransposes marks the cached weight transpose stale; call after
// mutating gate weights through Params.
func (c *Cell) InvalidateTransposes() { c.wtOK = false }

// Params enumerates all gate parameters.
func (c *Cell) Params() []nn.Param {
	var ps []nn.Param
	for _, g := range []struct {
		name  string
		layer *nn.Dense
	}{
		{"forget", c.forget}, {"input", c.input}, {"cand", c.cand}, {"output", c.output},
	} {
		for _, p := range g.layer.Params() {
			p.Name = g.name + "." + p.Name
			ps = append(ps, p)
		}
	}
	return ps
}

// NumParams returns the total scalar parameter count of the cell.
func (c *Cell) NumParams() int {
	return c.forget.NumParams() + c.input.NumParams() +
		c.cand.NumParams() + c.output.NumParams()
}
