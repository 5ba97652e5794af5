package nn

import (
	"fmt"
	"math"

	"hierdrl/internal/mat"
)

// Adam implements the Adam stochastic optimizer (Kingma & Ba, 2014), which
// the paper uses for both the DNN and the LSTM. The optimizer keeps one
// first/second moment buffer per parameter tensor, matched by position, so
// Step must always be called with the same parameter list.
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64

	t int
	m [][]float64
	v [][]float64
	// c1 and c2 are the bias corrections of the update Begin opened.
	c1, c2 float64
}

// NewAdam returns an Adam optimizer with the standard defaults
// (beta1=0.9, beta2=0.999, eps=1e-8).
func NewAdam(lr float64) *Adam {
	if lr <= 0 {
		panic("nn: Adam requires lr > 0")
	}
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update using the accumulated gradients in params and
// then leaves the gradients untouched (callers typically ZeroGrads after).
func (a *Adam) Step(params []Param) {
	a.Begin(params)
	for i, p := range params {
		a.StepRange(params, i, 0, len(p.Val))
	}
}

// Begin opens one update: it advances the step count and its bias
// corrections. StepRange then applies the update to elements [lo, hi) of
// tensor i; the update is elementwise, so ranges that together cover every
// tensor once — in any order, or concurrently when disjoint — produce the
// bits of Step.
func (a *Adam) Begin(params []Param) {
	if a.m == nil {
		a.m = make([][]float64, len(params))
		a.v = make([][]float64, len(params))
		for i, p := range params {
			a.m[i] = make([]float64, len(p.Val))
			a.v[i] = make([]float64, len(p.Val))
		}
	}
	if len(params) != len(a.m) {
		panic(fmt.Sprintf("nn: Adam.Step param count changed: %d != %d",
			len(params), len(a.m)))
	}
	for i, p := range params {
		if len(p.Val) != len(a.m[i]) {
			panic(fmt.Sprintf("nn: Adam.Step param %d size changed: %d != %d",
				i, len(p.Val), len(a.m[i])))
		}
	}
	a.t++
	a.c1 = 1 - math.Pow(a.Beta1, float64(a.t))
	a.c2 = 1 - math.Pow(a.Beta2, float64(a.t))
}

// StepRange applies the update Begin opened to elements [lo, hi) of tensor i.
func (a *Adam) StepRange(params []Param, i, lo, hi int) {
	p := params[i]
	mat.FusedAdam(p.Val[lo:hi], p.Grad[lo:hi], a.m[i][lo:hi], a.v[i][lo:hi],
		a.Beta1, a.Beta2, a.c1, a.c2, a.LR, a.Eps)
}

// Steps returns how many updates have been applied.
func (a *Adam) Steps() int { return a.t }
