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

// Activation names a layer's elementwise nonlinearity, one of a closed set.
// The zero value is Identity.
type Activation uint8

const (
	// Identity is the linear (no-op) activation used for Q-value output
	// layers.
	Identity Activation = iota
	// ELU is the exponential linear unit (α = 1) used by the paper's
	// autoencoder and Sub-Q networks: x for x >= 0, e^x − 1 otherwise.
	ELU
	// Tanh is the hyperbolic tangent.
	Tanh
	// Sigmoid is the logistic function 1 / (1 + e^−x).
	Sigmoid
)
