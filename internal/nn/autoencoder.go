package nn

import (
	"fmt"

	"hierdrl/internal/mat"
)

// Autoencoder is the representation-learning component of the paper's
// global-tier DNN (Sec. V-A): an encoder that compresses a server-group
// state vector to a low-dimensional code, plus a mirrored decoder used only
// during (pre-)training with a reconstruction objective. The paper's encoder
// is two fully-connected ELU layers with 30 and 15 neurons.
type Autoencoder struct {
	Enc *MLP
	Dec *MLP

	// ws is the scratch arena for TrainBatch (inputs, activations,
	// gradients), the tapes hold its backprop state and params caches the
	// parameter enumeration: warm pretraining epochs are allocation-free. An
	// Autoencoder is not safe for concurrent use.
	ws               *mat.Workspace
	params           []Param
	encTape, decTape BatchTape
}

// NewAutoencoder builds an autoencoder for input dimension in with the given
// hidden sizes; the last hidden size is the code dimension. All encoder and
// decoder layers use ELU except the decoder output, which is linear so that
// arbitrary-range inputs can be reconstructed.
func NewAutoencoder(in int, hidden []int, rng *mat.RNG) *Autoencoder {
	if in <= 0 {
		panic(fmt.Sprintf("nn: NewAutoencoder invalid input dim %d", in))
	}
	if len(hidden) == 0 {
		panic("nn: NewAutoencoder needs at least one hidden size")
	}
	encSizes := append([]int{in}, hidden...)
	encActs := make([]Activation, len(hidden))
	for i := range encActs {
		encActs[i] = ELU
	}
	decSizes := make([]int, 0, len(hidden)+1)
	for i := len(hidden) - 1; i >= 0; i-- {
		decSizes = append(decSizes, hidden[i])
	}
	decSizes = append(decSizes, in)
	decActs := make([]Activation, len(decSizes)-1)
	for i := range decActs {
		if i == len(decActs)-1 {
			decActs[i] = Identity
		} else {
			decActs[i] = ELU
		}
	}
	return &Autoencoder{
		Enc: NewMLP(encSizes, encActs, rng),
		Dec: NewMLP(decSizes, decActs, rng),
	}
}

// CodeDim returns the dimensionality of the learned representation.
func (a *Autoencoder) CodeDim() int { return a.Enc.OutDim() }

// InDim returns the input dimensionality.
func (a *Autoencoder) InDim() int { return a.Enc.InDim() }

// Encode returns the code for x together with a backward closure (for use
// when the encoder participates in a larger computation graph, as in the
// global-tier Q-network).
func (a *Autoencoder) Encode(x mat.Vec) (code mat.Vec, back func(dy mat.Vec) mat.Vec) {
	return a.Enc.Forward(x)
}

// EncodeInfer returns the code for x without capturing backprop state.
func (a *Autoencoder) EncodeInfer(x mat.Vec) mat.Vec { return a.Enc.Infer(x) }

// ReconstructionLoss runs encode+decode on x and returns the MSE
// reconstruction loss without updating any weights.
func (a *Autoencoder) ReconstructionLoss(x mat.Vec) float64 {
	y := a.Dec.Infer(a.Enc.Infer(x))
	loss, _ := MSE(y, x)
	return loss
}

// TrainBatch performs one optimizer step on a minibatch of inputs using the
// reconstruction MSE objective, returning the mean loss over the batch. The
// whole minibatch flows through the encoder and decoder as batched GEMMs;
// the result (loss and updated weights) is bitwise identical to running the
// per-sample Forward path over the batch in order.
func (a *Autoencoder) TrainBatch(xs []mat.Vec, opt *Adam, clipNorm float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	params := a.Params()
	ZeroGrads(params)
	if a.ws == nil {
		a.ws = mat.NewWorkspace()
	}
	ws := a.ws
	ws.Reset()
	B := len(xs)
	in := a.InDim()
	X := ws.TakeMatUninit(B, in)
	for b, x := range xs {
		X.Row(b).CopyFrom(x)
	}
	// The encoder is the graph's input layer: nothing consumes dL/dX, so
	// skip computing it (parameter gradients are unaffected).
	codes := a.Enc.ForwardBatchWS(ws, X, &a.encTape)
	Y := a.Dec.ForwardBatchWS(ws, codes, &a.decTape)

	var total float64
	scale := 1 / float64(B)
	n := float64(in)
	G := ws.TakeMatUninit(B, in)
	for b := 0; b < B; b++ {
		yRow, xRow, gRow := Y.Row(b), X.Row(b), G.Row(b)
		var loss float64
		for i := range yRow {
			d := yRow[i] - xRow[i]
			loss += d * d
			// MSE gradient (2d/n), pre-scaled by the batch weight exactly as
			// the per-sample path's grad.Scale(scale) would.
			gRow[i] = 2 * d / n * scale
		}
		total += loss / n
	}
	a.Enc.BackwardBatchWS(&a.encTape, a.Dec.BackwardBatchWS(&a.decTape, G, true), false)
	if clipNorm > 0 {
		ClipGrads(params, clipNorm)
	}
	opt.Step(params)
	a.Enc.InvalidateTransposes()
	a.Dec.InvalidateTransposes()
	return total / float64(B)
}

// Params enumerates encoder and decoder parameters (cached — the tensors
// are fixed at construction).
func (a *Autoencoder) Params() []Param {
	if a.params == nil {
		a.params = a.Enc.Params()
		for _, p := range a.Dec.Params() {
			p.Name = "dec." + p.Name
			a.params = append(a.params, p)
		}
	}
	return a.params
}

// CopyWeightsFrom copies all weights from src.
func (a *Autoencoder) CopyWeightsFrom(src *Autoencoder) {
	a.Enc.CopyWeightsFrom(src.Enc)
	a.Dec.CopyWeightsFrom(src.Dec)
}
