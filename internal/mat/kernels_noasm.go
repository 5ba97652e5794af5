//go:build !amd64

package mat

// Non-amd64 builds always use the Go tiles. The constant makes every
// vector-guarded call dead code; the two stubs only let the shared files
// compile.

const useAVX512 = false

// KernelFamily names the kernel family in use.
func KernelFamily() string { return "portable" }

// ForEachKernelFamily calls f under every kernel family of this build: one.
func ForEachKernelFamily(f func(family string)) { f("portable") }

func gemm512(c []float64, ldc int, a []float64, rs, ks int, w []float64, ldw, m, k, n int, overwrite bool) {
	panic("mat: no vector kernels in this build")
}

func vaxpy1(dst, r []float64, x float64) { panic("mat: no vector kernels in this build") }

// ELU computes dst[i] = src[i] for src[i] >= 0 and alpha*(exp(src[i]) - 1)
// otherwise; src and dst may be the same slice.
func ELU(alpha float64, src, dst []float64) { eluScalar(alpha, src, dst[:len(src)]) }

// ELUGrad computes the ELU backward factor dst[i] = dy[i] for pre[i] >= 0 and
// dy[i]*(y[i] + alpha) otherwise.
func ELUGrad(alpha float64, dy, pre, y, dst []float64) {
	n := len(dy)
	eluGradScalar(alpha, dy, pre[:n], y[:n], dst[:n])
}

// Sigmoid computes dst[i] = 1/(1 + exp(-src[i])); src and dst may be the same
// slice.
func Sigmoid(src, dst []float64) { sigmoidScalar(src, dst[:len(src)]) }

// Tanh computes dst[i] = math.Tanh(src[i]); src and dst may be the same slice.
func Tanh(src, dst []float64) { tanhScalar(src, dst[:len(src)]) }

// FusedAdam applies one elementwise Adam update across the whole tensor
// (see the amd64 variant for the formula).
func FusedAdam(val, grad, m, v Vec, b1, b2, c1, c2, lr, eps float64) {
	fusedAdamScalar(val, grad, m, v, 0, b1, b2, c1, c2, lr, eps)
}
