package nn

import (
	"fmt"

	"hierdrl/internal/mat"
)

// MLP is a stack of Dense layers applied in sequence.
type MLP struct {
	Layers []*Dense
}

// NewMLP builds a multilayer perceptron with the given layer sizes. sizes
// must contain at least two entries (input and output dimension). acts must
// have len(sizes)-1 entries, one per layer.
func NewMLP(sizes []int, acts []Activation, rng *mat.RNG) *MLP {
	if len(sizes) < 2 {
		panic("nn: NewMLP needs at least input and output sizes")
	}
	if len(acts) != len(sizes)-1 {
		panic(fmt.Sprintf("nn: NewMLP got %d activations for %d layers",
			len(acts), len(sizes)-1))
	}
	m := &MLP{Layers: make([]*Dense, 0, len(sizes)-1)}
	for i := 0; i < len(sizes)-1; i++ {
		m.Layers = append(m.Layers, NewDense(sizes[i], sizes[i+1], acts[i], rng))
	}
	return m
}

// InDim returns the input dimensionality.
func (m *MLP) InDim() int { return m.Layers[0].In }

// Forward runs the network and returns the output plus a backward closure
// producing dL/dinput while accumulating parameter gradients.
func (m *MLP) Forward(x mat.Vec) (y mat.Vec, back func(dy mat.Vec) mat.Vec) {
	backs := make([]func(mat.Vec) mat.Vec, len(m.Layers))
	h := x
	for i, l := range m.Layers {
		h, backs[i] = l.Forward(h)
	}
	back = func(dy mat.Vec) mat.Vec {
		g := dy
		for i := len(backs) - 1; i >= 0; i-- {
			g = backs[i](g)
		}
		return g
	}
	return h, back
}

// Infer runs the network without capturing backprop state. It allocates and
// returns the output vector.
func (m *MLP) Infer(x mat.Vec) mat.Vec {
	h := x
	for _, l := range m.Layers {
		out := mat.NewVec(l.Out)
		l.Infer(h, out)
		h = out
	}
	return h
}

// Params enumerates all trainable parameters.
func (m *MLP) Params() []Param {
	var ps []Param
	for i, l := range m.Layers {
		for _, p := range l.Params() {
			p.Name = fmt.Sprintf("layer%d.%s", i, p.Name)
			ps = append(ps, p)
		}
	}
	return ps
}

// CopyWeightsFrom copies weights from src, layer by layer. Shapes must match.
func (m *MLP) CopyWeightsFrom(src *MLP) {
	if len(m.Layers) != len(src.Layers) {
		panic("nn: MLP CopyWeightsFrom layer count mismatch")
	}
	for i := range m.Layers {
		m.Layers[i].CopyWeightsFrom(src.Layers[i])
	}
}

// InvalidateTransposes marks every layer's cached Wᵀ stale. Call after any
// out-of-band weight mutation (optimizer step, snapshot restore).
func (m *MLP) InvalidateTransposes() {
	for _, l := range m.Layers {
		l.InvalidateTranspose()
	}
}

// PrepareTransposes builds every stale cached Wᵀ now, so that concurrent
// inference calls afterwards only read the caches.
func (m *MLP) PrepareTransposes() {
	for _, l := range m.Layers {
		l.transposedW()
	}
}

// NumParams returns the total scalar parameter count.
func (m *MLP) NumParams() int {
	n := 0
	for _, l := range m.Layers {
		n += l.NumParams()
	}
	return n
}
