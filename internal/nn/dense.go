package nn

import (
	"fmt"
	"math"

	"hierdrl/internal/mat"
)

// Param is one trainable tensor (flattened) together with its accumulated
// gradient. Optimizers mutate Val in place.
type Param struct {
	Name string
	Val  []float64
	Grad []float64
}

// ZeroGrads clears the gradient buffers of all params.
func ZeroGrads(params []Param) {
	for _, p := range params {
		for i := range p.Grad {
			p.Grad[i] = 0
		}
	}
}

// GradNorm returns the global L2 norm across all parameter gradients.
func GradNorm(params []Param) float64 {
	var s float64
	for _, p := range params {
		for _, g := range p.Grad {
			s += g * g
		}
	}
	return math.Sqrt(s)
}

// ClipGrads rescales all gradients so their global L2 norm is at most
// maxNorm (the paper clips at 10). It returns the pre-clip norm.
func ClipGrads(params []Param, maxNorm float64) float64 {
	norm := GradNorm(params)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			for i := range p.Grad {
				p.Grad[i] *= scale
			}
		}
	}
	return norm
}

// Dense is a fully-connected layer: y = act(W x + b). Forward returns a
// backward closure that accumulates dW and db and returns dx, so the same
// layer object may be applied several times per sample (weight sharing).
type Dense struct {
	In, Out int
	Act     Activation

	W  *mat.Dense // Out x In
	B  mat.Vec    // Out
	GW *mat.Dense // gradient accumulator, Out x In
	GB mat.Vec    // gradient accumulator, Out

	// wt caches Wᵀ for the AVX-512 fast paths. It is rebuilt lazily after any
	// weight mutation; every code path that writes W (optimizer steps,
	// weight copies, snapshot restores) must call InvalidateTranspose.
	wt   *mat.Dense
	wtOK bool
}

// InvalidateTranspose marks the cached Wᵀ stale. Call after mutating W
// outside the layer's own methods.
func (d *Dense) InvalidateTranspose() { d.wtOK = false }

// transposedW returns the cached Wᵀ, rebuilding it if stale. It returns
// nil when no kernel would read the transpose (no AVX-512, or the
// layer is too narrow), so callers skip the cache maintenance entirely on
// such platforms/shapes.
func (d *Dense) transposedW() *mat.Dense {
	if !mat.BTUsable(d.Out) {
		return nil
	}
	if !d.wtOK {
		if d.wt == nil {
			d.wt = mat.NewDense(d.In, d.Out)
		}
		mat.TransposeInto(d.W, d.wt)
		d.wtOK = true
	}
	return d.wt
}

// TransposeRows rewrites rows [r0, r1) of W into the cached Wᵀ, for an
// update that changed those rows: ranges that are disjoint may be written
// concurrently, and once every row is rewritten SetTransposeCurrent marks the
// cache current, so no later call rebuilds it. Both do nothing where no
// kernel reads the cache or it was never built.
func (d *Dense) TransposeRows(r0, r1 int) {
	if d.wt != nil && mat.BTUsable(d.Out) {
		mat.TransposeRowsInto(d.W, d.wt, r0, r1)
	}
}

// SetTransposeCurrent marks the cached Wᵀ current after TransposeRows has
// rewritten every row.
func (d *Dense) SetTransposeCurrent() { d.wtOK = d.wt != nil && mat.BTUsable(d.Out) }

// NewDense returns a Dense layer with Xavier-initialized weights and zero
// biases.
func NewDense(in, out int, act Activation, rng *mat.RNG) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: NewDense invalid dims in=%d out=%d", in, out))
	}
	d := &Dense{
		In:  in,
		Out: out,
		Act: act,
		W:   mat.NewDense(out, in),
		B:   mat.NewVec(out),
		GW:  mat.NewDense(out, in),
		GB:  mat.NewVec(out),
	}
	rng.FillXavier(d.W, in, out)
	return d
}

// Forward computes y = act(Wx + b) and returns a backward closure. The
// closure accumulates parameter gradients into GW/GB and returns dL/dx.
// The returned y is freshly allocated and owned by the caller.
func (d *Dense) Forward(x mat.Vec) (y mat.Vec, back func(dy mat.Vec) mat.Vec) {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: Dense.Forward input length %d want %d", len(x), d.In))
	}
	pre := mat.NewVec(d.Out)
	d.W.MulVec(x, pre)
	mat.AddScaled(pre, 1, d.B)
	y = mat.NewVec(d.Out)
	applyAct(d.Act, pre, y)
	xSaved := x.Clone()
	back = func(dy mat.Vec) mat.Vec {
		if len(dy) != d.Out {
			panic(fmt.Sprintf("nn: Dense backward grad length %d want %d", len(dy), d.Out))
		}
		dPre := mat.NewVec(d.Out)
		applyActDeriv(d.Act, dy, pre, y, dPre)
		d.GW.AddOuter(dPre, xSaved)
		d.GB.Add(dPre)
		dx := mat.NewVec(d.In)
		d.W.MulVecT(dPre, dx)
		return dx
	}
	return y, back
}

// Infer computes the layer output without capturing state for backprop.
// dst must have length Out; it is returned for convenience.
func (d *Dense) Infer(x, dst mat.Vec) mat.Vec {
	if len(x) != d.In || len(dst) != d.Out {
		panic(fmt.Sprintf("nn: Dense.Infer shapes len(x)=%d len(dst)=%d want %d,%d",
			len(x), len(dst), d.In, d.Out))
	}
	d.W.MulVec(x, dst)
	mat.AddScaled(dst, 1, d.B)
	applyAct(d.Act, dst, dst)
	return dst
}

// InferFast is Infer routed through the cached-Wᵀ path (bitwise
// identical results). Unlike Infer it reads the transpose cache, so callers
// must guarantee InvalidateTranspose runs after every out-of-band weight
// mutation; the training loops in this repo are wired accordingly. Use
// plain Infer when in doubt — e.g. when perturbing weights through Params.
func (d *Dense) InferFast(x, dst mat.Vec) mat.Vec {
	if len(x) != d.In || len(dst) != d.Out {
		panic(fmt.Sprintf("nn: Dense.InferFast shapes len(x)=%d len(dst)=%d want %d,%d",
			len(x), len(dst), d.In, d.Out))
	}
	mat.MulVecWithBT(d.W, d.transposedW(), x, dst)
	mat.AddScaled(dst, 1, d.B)
	applyAct(d.Act, dst, dst)
	return dst
}

// Params implements the parameter enumeration used by optimizers.
func (d *Dense) Params() []Param {
	return []Param{
		{Name: "W", Val: d.W.Data, Grad: d.GW.Data},
		{Name: "b", Val: d.B, Grad: d.GB},
	}
}

// CopyWeightsFrom copies the weights (not gradients) of src into d. The two
// layers must have identical shape. Used for target-network syncing.
func (d *Dense) CopyWeightsFrom(src *Dense) {
	if d.In != src.In || d.Out != src.Out {
		panic(fmt.Sprintf("nn: CopyWeightsFrom shape mismatch %dx%d != %dx%d",
			d.Out, d.In, src.Out, src.In))
	}
	d.W.CopyFrom(src.W)
	d.B.CopyFrom(src.B)
	d.wtOK = false
}

// NumParams returns the number of scalar parameters in the layer.
func (d *Dense) NumParams() int { return d.Out*d.In + d.Out }
