//go:build !amd64

package mat

// Portable fallbacks: non-amd64 builds always use the Go tiles. The two
// constants make every vector-guarded call dead code; the GEMM stubs only let
// the shared files compile.

const (
	useVectorKernels = false
	useAVX512        = false
)

// KernelFamily names the kernel family in use.
func KernelFamily() string { return "portable" }

// ForEachKernelFamily calls f under every kernel family of this build: one.
func ForEachKernelFamily(f func(family string)) { f("portable") }

func gemm512(c []float64, ldc int, a []float64, rs, ks int, w []float64, ldw, m, k, n int, overwrite bool) {
	panic("mat: no vector kernels in this build")
}

func gemvTAddVec(a []float64, rows, cols int, x, dst []float64) {
	panic("mat: no vector kernels in this build")
}

func vaxpy4(dst, r0, r1, r2, r3 []float64, x0, x1, x2, x3 float64) {
	for j := range dst {
		s := dst[j]
		s += r0[j] * x0
		s += r1[j] * x1
		s += r2[j] * x2
		s += r3[j] * x3
		dst[j] = s
	}
}

func vaxpy1(dst, r []float64, x float64) {
	for j := range dst {
		dst[j] += r[j] * x
	}
}

// ELU computes dst[i] = src[i] for src[i] >= 0 and alpha*(exp(src[i]) - 1)
// otherwise; src and dst may be the same slice.
func ELU(alpha float64, src, dst []float64) { eluScalar(alpha, src, dst[:len(src)]) }

// ELUGrad computes the ELU backward factor dst[i] = dy[i] for pre[i] >= 0 and
// dy[i]*(y[i] + alpha) otherwise.
func ELUGrad(alpha float64, dy, pre, y, dst []float64) {
	n := len(dy)
	eluGradScalar(alpha, dy, pre[:n], y[:n], dst[:n])
}

// FusedAdam applies one elementwise Adam update across the whole tensor
// (see the amd64 variant for the formula).
func FusedAdam(val, grad, m, v Vec, b1, b2, c1, c2, lr, eps float64) {
	fusedAdamScalar(val, grad, m, v, 0, b1, b2, c1, c2, lr, eps)
}
