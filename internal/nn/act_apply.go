package nn

import "hierdrl/internal/mat"

// Devirtualized elementwise activation loops. The generic interface call per
// element costs more than the arithmetic for the cheap activations, so the
// hot layer paths funnel through these helpers, which type-switch once per
// vector and then run a direct loop. Each branch replicates the
// corresponding Activation method exactly, so results are bitwise identical
// to the interface path (the default case). ELU, tanh and the sigmoid go
// through mat.ELU, mat.Tanh and mat.Sigmoid, which on AVX-512+FMA hosts
// evaluate eight lanes with math.Exp's own instruction sequence (and
// math.tanh's own branches) and are the scalar loops everywhere else.

// applyAct computes dst[i] = act.F(src[i]). src and dst may alias.
func applyAct(act Activation, src, dst []float64) {
	dst = dst[:len(src)]
	switch a := act.(type) {
	case Identity:
		if &dst[0] != &src[0] {
			copy(dst, src)
		}
	case ELU:
		mat.ELU(a.alpha(), src, dst)
	case Tanh:
		mat.Tanh(src, dst)
	case Sigmoid:
		mat.Sigmoid(src, dst)
	default:
		for i, x := range src {
			dst[i] = act.F(x)
		}
	}
}

// applyActDeriv computes dst[i] = dy[i] * act.Deriv(pre[i], y[i]).
func applyActDeriv(act Activation, dy, pre, y, dst []float64) {
	n := len(dy)
	pre = pre[:n]
	y = y[:n]
	dst = dst[:n]
	switch a := act.(type) {
	case Identity:
		copy(dst, dy)
	case ELU:
		mat.ELUGrad(a.alpha(), dy, pre, y, dst)
	case Tanh:
		for i, g := range dy {
			dst[i] = g * (1 - y[i]*y[i])
		}
	case Sigmoid:
		for i, g := range dy {
			dst[i] = g * (y[i] * (1 - y[i]))
		}
	default:
		for i, g := range dy {
			dst[i] = g * act.Deriv(pre[i], y[i])
		}
	}
}
