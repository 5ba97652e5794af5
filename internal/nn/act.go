// Package nn implements the small neural-network toolkit the paper needs:
// fully-connected layers with closure-based backpropagation, ELU activations,
// the Adam optimizer, global gradient-norm clipping, and an autoencoder.
//
// The backward pass is expressed as closures: every Forward call returns the
// output along with a function that, given the gradient of the loss with
// respect to the output, accumulates parameter gradients and returns the
// gradient with respect to the input. Because gradients are *accumulated*,
// applying one layer object to several inputs within a sample (the paper's
// weight sharing across server groups, and the LSTM's sharing across time
// steps) falls out naturally.
package nn

import "math"

// Activation is an elementwise nonlinearity. Deriv receives both the
// pre-activation x and the activation y = F(x) so implementations can use
// whichever is cheaper.
type Activation interface {
	// F applies the function to a scalar.
	F(x float64) float64
	// Deriv returns dF/dx given the input x and output y = F(x).
	Deriv(x, y float64) float64
}

// ELU is the exponential linear unit used by the paper's autoencoder and
// Sub-Q networks: F(x) = x for x >= 0, alpha*(e^x - 1) otherwise.
type ELU struct {
	Alpha float64
}

// F implements Activation.
func (e ELU) F(x float64) float64 {
	if x >= 0 {
		return x
	}
	return e.alpha() * (math.Exp(x) - 1)
}

// Deriv implements Activation.
func (e ELU) Deriv(x, y float64) float64 {
	if x >= 0 {
		return 1
	}
	return y + e.alpha() // alpha*e^x = y + alpha
}

func (e ELU) alpha() float64 {
	if e.Alpha == 0 {
		return 1
	}
	return e.Alpha
}

// Tanh is the hyperbolic tangent.
type Tanh struct{}

// F implements Activation.
func (Tanh) F(x float64) float64 { return math.Tanh(x) }

// Deriv implements Activation.
func (Tanh) Deriv(_, y float64) float64 { return 1 - y*y }

// Sigmoid is the logistic function.
type Sigmoid struct{}

// F implements Activation.
func (Sigmoid) F(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Deriv implements Activation.
func (Sigmoid) Deriv(_, y float64) float64 { return y * (1 - y) }

// Identity is the linear (no-op) activation used for Q-value output layers.
type Identity struct{}

// F implements Activation.
func (Identity) F(x float64) float64 { return x }

// Deriv implements Activation.
func (Identity) Deriv(_, _ float64) float64 { return 1 }

var (
	_ Activation = ELU{}
	_ Activation = Tanh{}
	_ Activation = Sigmoid{}
	_ Activation = Identity{}
)
