package nn

import "hierdrl/internal/mat"

// Elementwise activation loops, one switch per vector. ELU, tanh and the
// sigmoid go through mat.ELU, mat.Tanh and mat.Sigmoid, which on AVX-512+FMA
// hosts evaluate eight lanes with math.Exp's own instruction sequence (and
// math.tanh's own branches) and are the scalar loops everywhere else.

// applyAct computes dst[i] = act(src[i]). src and dst may alias.
func applyAct(act Activation, src, dst []float64) {
	dst = dst[:len(src)]
	switch act {
	case Identity:
		if &dst[0] != &src[0] {
			copy(dst, src)
		}
	case ELU:
		mat.ELU(1, src, dst)
	case Tanh:
		mat.Tanh(src, dst)
	case Sigmoid:
		mat.Sigmoid(src, dst)
	}
}

// applyActDeriv computes dst[i] = dy[i] * act'(pre[i]), reading the
// derivative from the output y[i] = act(pre[i]) where that is cheaper.
func applyActDeriv(act Activation, dy, pre, y, dst []float64) {
	n := len(dy)
	pre = pre[:n]
	y = y[:n]
	dst = dst[:n]
	switch act {
	case Identity:
		copy(dst, dy)
	case ELU:
		mat.ELUGrad(1, dy, pre, y, dst) // e^x = y + 1 below zero
	case Tanh:
		for i, g := range dy {
			dst[i] = g * (1 - y[i]*y[i])
		}
	case Sigmoid:
		for i, g := range dy {
			dst[i] = g * (y[i] * (1 - y[i]))
		}
	}
}
