//go:build amd64

package mat

// Kernel-family dispatch, decided once at init. Two families compute the
// exact same bits: "avx512" (register-tiled GEMM, 8-lane axpy, packed ELU,
// sigmoid and tanh, packed Adam) and "portable" (the Go tiles of kernels.go,
// which define the ordering rule; every amd64 host without AVX-512F, or whose
// OS does not save ZMM state, runs them).

var useAVX512 = detectAVX512()

// hasFMA mirrors the toolchain's math.useFMA (AVX usable and CPUID.1:ECX.FMA):
// the packed activations repeat math.Exp's FMA instruction sequence, so they
// may run only where math.Exp itself takes that path.
var hasFMA = useAVX512 && detectFMA()

// KernelFamily names the kernel family in use.
func KernelFamily() string {
	if useAVX512 {
		return "avx512"
	}
	return "portable"
}

// ForEachKernelFamily calls f once under every kernel family this host can
// run, widest first, then restores the detected one. It is test support for
// the bitwise-equivalence suites here and in the packages above, which would
// otherwise only ever see the detected family. The switch is process-wide:
// never call it from parallel tests or outside tests.
func ForEachKernelFamily(f func(family string)) {
	wide := useAVX512
	defer func() { useAVX512 = wide }()
	if wide {
		f("avx512")
	}
	useAVX512 = false
	f("portable")
}

func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

func detectFMA() bool {
	_, _, ecx1, _ := cpuidex(1, 0)
	const fma = 1 << 12
	return ecx1&fma != 0
}

func detectAVX512() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	if ecx1&osxsave == 0 {
		return false
	}
	// The OS must save SSE and AVX state (XCR0 bits 1-2) and the opmask and
	// ZMM state (bits 5-7).
	xcr0, _ := xgetbv0()
	if xcr0&0xe6 != 0xe6 {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx512f = 1 << 16
	return ebx7&avx512f != 0
}

// The assembly (gemm_avx512_amd64.s, act_avx512_amd64.s, kernels_amd64.s).
func fusedAdamAsm(val, grad, m, v []float64, b1, omb1, b2, omb2, c1, c2, lr, eps float64)
func vaxpy1asm512(dst, r []float64, x float64)

//go:noescape
func gemmTile512(c *float64, ldc int, a *float64, rs, ks int, w *float64, ldw, k, cols, rows int, overwrite bool)

//go:noescape
func eluAsm512(dst, src *float64, n int, alpha float64)

//go:noescape
func eluGradAsm512(dst, dy, pre, y *float64, n int, alpha float64)

//go:noescape
func sigmoidAsm512(dst, src *float64, n int) (done int)

//go:noescape
func tanhAsm512(dst, src *float64, n int) (done int)

// ELU computes dst[i] = src[i] for src[i] >= 0 and alpha*(exp(src[i]) - 1)
// otherwise; src and dst must be the same slice or not overlap. On a host
// where math.Exp runs its FMA sequence (and AVX-512 is usable) eight lanes
// are evaluated at once with that same sequence — identical bits, see
// act_avx512_amd64.s — and everywhere else the scalar loop runs.
func ELU(alpha float64, src, dst []float64) {
	dst = dst[:len(src)]
	if useAVX512 && hasFMA && len(src) > 0 {
		eluAsm512(&dst[0], &src[0], len(src), alpha)
		return
	}
	eluScalar(alpha, src, dst)
}

// Sigmoid computes dst[i] = 1/(1 + exp(-src[i])); src and dst must be the
// same slice or not overlap. Where the packed ELU runs, so does a packed
// sigmoid on the same exp — identical bits to the scalar loop, which is the
// only path everywhere else.
func Sigmoid(src, dst []float64) {
	dst = dst[:len(src)]
	if !(useAVX512 && hasFMA) {
		sigmoidScalar(src, dst)
		return
	}
	for i := 0; i < len(src); {
		i += sigmoidAsm512(&dst[i], &src[i], len(src)-i)
		// The kernel stops at a group of eight it cannot prove in range
		// (|x| > 700, NaN): that group is the scalar loop's.
		end := min(i+8, len(src))
		sigmoidScalar(src[i:end], dst[i:end])
		i = end
	}
}

// Tanh computes dst[i] = math.Tanh(src[i]) under Sigmoid's rules: eight lanes
// of the toolchain's pure-Go tanh, all three branches, where the packed
// kernels run, the scalar loop elsewhere and for any group out of range.
func Tanh(src, dst []float64) {
	dst = dst[:len(src)]
	if !(useAVX512 && hasFMA) {
		tanhScalar(src, dst)
		return
	}
	for i := 0; i < len(src); {
		i += tanhAsm512(&dst[i], &src[i], len(src)-i)
		end := min(i+8, len(src))
		tanhScalar(src[i:end], dst[i:end])
		i = end
	}
}

// ELUGrad computes the ELU backward factor dst[i] = dy[i] for pre[i] >= 0 and
// dy[i]*(y[i] + alpha) otherwise (alpha*e^x = y + alpha), eight lanes at a
// time on AVX-512 hosts; the scalar loop's branch on the sign of a random
// pre-activation mispredicts about every other element.
func ELUGrad(alpha float64, dy, pre, y, dst []float64) {
	n := len(dy)
	pre, y, dst = pre[:n], y[:n], dst[:n]
	if useAVX512 && n > 0 {
		eluGradAsm512(&dst[0], &dy[0], &pre[0], &y[0], n, alpha)
		return
	}
	eluGradScalar(alpha, dy, pre, y, dst)
}

// FusedAdam applies one elementwise Adam update
//
//	m = b1*m + (1-b1)*g
//	v = b2*v + (1-b2)*g*g
//	val -= lr*(m/c1) / (sqrt(v/c2) + eps)
//
// across the whole tensor, bitwise identical to the scalar loop (every
// SIMD lane op is correctly rounded).
func FusedAdam(val, grad, m, v Vec, b1, b2, c1, c2, lr, eps float64) {
	n := len(val)
	grad = grad[:n]
	m = m[:n]
	v = v[:n]
	start := 0
	if useAVX512 && n >= 4 {
		n4 := n &^ 3
		fusedAdamAsm(val[:n4], grad, m, v, b1, 1-b1, b2, 1-b2, c1, c2, lr, eps)
		start = n4
	}
	fusedAdamScalar(val, grad, m, v, start, b1, b2, c1, c2, lr, eps)
}

// gemm512 computes C += A·W — or, with overwrite, C = A·W — on the AVX-512
// register tile: for every i < m, j < n
//
//	c[i*ldc+j] += Σ_k a[i*rs+k*ks] * w[k*ldw+j]
//
// with k ascending, one rounded multiply then one rounded add per term, and
// terms whose coefficient a[..] == 0 skipped — the scalar sequence of
// gemvTAddRows4 / AddOuter for each output element (gemm_avx512_amd64.s has
// the argument). overwrite starts every sum from +0.0, which is what clearing
// C first stores. It is the one entry behind every 512-bit GEMM/GEMV in the
// package: the coefficient strides let it read A row-wise (rs = lda, ks = 1;
// MulMatTWithBT, MulMat, gemvTAdd) or column-wise (rs = 1, ks = lda;
// AddMulTMat). Column blocks are the outer loop so a K×32 stripe of W is
// walked by every row tile while it is cache-hot; the first block takes the
// odd width so all later ones are full.
func gemm512(c []float64, ldc int, a []float64, rs, ks int, w []float64, ldw, m, k, n int, overwrite bool) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if overwrite {
			for i := 0; i < m; i++ {
				clear(c[i*ldc : i*ldc+n])
			}
		}
		return
	}
	// The kernel works on raw pointers: prove the far corners in range here.
	_ = c[(m-1)*ldc+n-1]
	_ = a[(m-1)*rs+(k-1)*ks]
	_ = w[(k-1)*ldw+n-1]
	for j, cols := 0, n-(n-1)/32*32; j < n; j, cols = j+cols, 32 {
		for i := 0; i < m; i += 4 {
			gemmTile512(&c[i*ldc+j], ldc, &a[i*rs], rs, ks, &w[j], ldw, k, cols, min(4, m-i), overwrite)
		}
	}
}

// vaxpy1 computes dst[j] += r[j]*x for every j.
func vaxpy1(dst, r []float64, x float64) {
	n4 := len(dst) &^ 3
	if n4 > 0 {
		vaxpy1asm512(dst[:n4], r, x)
	}
	for j := n4; j < len(dst); j++ {
		dst[j] += r[j] * x
	}
}
