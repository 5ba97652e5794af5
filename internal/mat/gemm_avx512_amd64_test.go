//go:build amd64

package mat

import (
	"math"
	"testing"
)

// gemmRef is the scalar statement of gemm512's contract: per output element
// (cleared first when overwriting), ascending k, multiply then add, zero
// coefficients skipped.
func gemmRef(c []float64, ldc int, a []float64, rs, ks int, w []float64, ldw, m, k, n int, overwrite bool) {
	for i := 0; i < m; i++ {
		if overwrite {
			clear(c[i*ldc : i*ldc+n])
		}
		for kk := 0; kk < k; kk++ {
			coef := a[i*rs+kk*ks]
			if coef == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				c[i*ldc+j] += w[kk*ldw+j] * coef
			}
		}
	}
}

// specialValue draws the values the ordering contract is about: signed
// zeros (skipped as coefficients, absorbing as weights), infinities and NaN
// (0·Inf must not reach a skipped lane, NaN coefficients are not skipped).
func specialValue(rng *RNG) float64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		return math.NaN()
	}
	return rng.Normal(0, 1)
}

// TestGemm512MatchesScalarReference drives the AVX-512 GEMM entry over
// random shapes, both coefficient layouts (row-wise as MulMat reads A,
// column-wise as AddMulTMat does), accumulating and overwriting, and requires
// every output bit — and every element outside the m×n window — to equal
// the scalar reference.
func TestGemm512MatchesScalarReference(t *testing.T) {
	t.Logf("detected kernel family: %s", KernelFamily())
	if !useAVX512 {
		t.Skip("no AVX-512: the register tile cannot run on this host")
	}
	rng := NewRNG(16)
	for iter := 0; iter < 4000; iter++ {
		m, k, n := 1+rng.Intn(9), rng.Intn(71), 1+rng.Intn(140)
		ldc, ldw := n+rng.Intn(3), n+rng.Intn(3)
		pad := rng.Intn(3)
		rs, ks := k+pad, 1
		if iter%2 == 1 { // AddMulTMat: a is k×(m+pad), output row i reads column i
			rs, ks = 1, m+pad
		}
		overwrite := iter/4%2 == 1
		a := make([]float64, m*rs+k*ks+1)
		for i := range a {
			a[i] = rng.Normal(0, 1)
		}
		w := randVec(k*ldw+1, rng)
		c := randVec(m*ldc+1, rng)
		// Zero-rich and all-zero coefficient rows, -0.0 accumulators, and
		// non-finite values on both operands.
		zeroRow, special := rng.Intn(m), iter%5 == 0
		for i := 0; i < m; i++ {
			for kk := 0; kk < k; kk++ {
				p := &a[i*rs+kk*ks]
				switch {
				case i == zeroRow && iter%3 == 0:
					*p = 0
				case rng.Float64() < 0.3:
					*p = math.Copysign(0, float64(rng.Intn(2))-0.5)
				case special && rng.Float64() < 0.2:
					*p = specialValue(rng)
				}
			}
		}
		for i := range w {
			if special && rng.Float64() < 0.1 {
				w[i] = specialValue(rng)
			}
		}
		for i := range c {
			if rng.Float64() < 0.2 {
				c[i] = math.Copysign(0, -1)
			}
		}
		want := c.Clone()
		gemmRef(want, ldc, a, rs, ks, w, ldw, m, k, n, overwrite)
		gemm512(c, ldc, a, rs, ks, w, ldw, m, k, n, overwrite)
		for i := range c {
			// Bits, except that any NaN matches any NaN: when two NaNs meet,
			// which payload survives depends on the operand order the Go
			// compiler picked for the scalar reference, which it does not fix.
			if math.Float64bits(c[i]) != math.Float64bits(want[i]) && !(math.IsNaN(c[i]) && math.IsNaN(want[i])) {
				t.Fatalf("iter %d m=%d k=%d n=%d rs=%d ks=%d overwrite=%v: c[%d] (row %d col %d) = %x, want %x",
					iter, m, k, n, rs, ks, overwrite, i, i/ldc, i%ldc, math.Float64bits(c[i]), math.Float64bits(want[i]))
			}
		}
	}
}
