package mat

import (
	"math"
	"testing"
)

// eluRef is the scalar expression the packed kernel must reproduce bit for
// bit (the shape of nn.ELU.F).
func eluRef(alpha, x float64) float64 {
	if x >= 0 {
		return x
	}
	return alpha * (math.Exp(x) - 1)
}

// eluEdges are the inputs where the packed exp takes no branch the scalar
// one does: signed zeros, infinities, NaN, denormals, both sides of the -700
// clamp and of -37.43 (where exp(x) - 1 starts rounding to -1), math.Exp's
// denormal and underflow ranges, and magnitudes the int32 conversion cannot
// hold.
var eluEdges = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
	5e-324, -5e-324, math.SmallestNonzeroFloat64 * 3, -2.2250738585072014e-308,
	-700, math.Nextafter(-700, 0), math.Nextafter(-700, -1000), -699.5, -700.5,
	-37.42, -37.43, -37.44, -36.7, -36.8, -708.4, -709.8, -745.2, -746, -1000,
	1e300, -1e300, math.MaxFloat64, -math.MaxFloat64, -1e-300, -1e-17, -0.5,
	-1, -math.Ln2, -math.Ln2 / 2, -1.5 * math.Ln2, 1, 709.8, -2147483648.5, -4e9,
}

func checkELU(t *testing.T, alpha float64, src []float64) {
	t.Helper()
	dst := make([]float64, len(src))
	ELU(alpha, src, dst)
	aliased := append([]float64(nil), src...)
	ELU(alpha, aliased, aliased)
	for i, x := range src {
		want := math.Float64bits(eluRef(alpha, x))
		if got := math.Float64bits(dst[i]); got != want {
			t.Fatalf("alpha=%v n=%d: ELU(%v = %#x)[%d] = %#x, want %#x", alpha, len(src), x, math.Float64bits(x), i, got, want)
		}
		if got := math.Float64bits(aliased[i]); got != want {
			t.Fatalf("alpha=%v n=%d aliased: ELU(%v)[%d] = %#x, want %#x", alpha, len(src), x, i, got, want)
		}
	}
}

// TestELUMatchesScalarBitwise pins the packed ELU to the scalar expression:
// over a million random arguments across the magnitudes the networks see and
// far beyond, every edge input at every lane position, two alphas, lengths
// 1-17 (every tail mask), in place and out of place — under each kernel
// family (only avx512 has a packed path; the others run the scalar loop).
func TestELUMatchesScalarBitwise(t *testing.T) {
	forEachKernelFamily(t, func(t *testing.T) {
		rng := NewRNG(17)
		for _, alpha := range []float64{1, 0.37} {
			for n := 1; n <= 17; n++ {
				src := make([]float64, n)
				for _, e := range eluEdges {
					for pos := 0; pos < n; pos++ {
						for i := range src {
							src[i] = rng.Normal(0, 3)
						}
						src[pos] = e
						checkELU(t, alpha, src)
					}
				}
			}
			src := make([]float64, 1<<12)
			for round := 0; round < 140; round++ {
				// Scales from denormal-adjacent to past the clamp.
				scale := math.Pow(10, float64(round%14)-9)
				for i := range src {
					src[i] = rng.Normal(0, 1) * scale
					if round%2 == 0 {
						src[i] = -math.Abs(src[i])
					}
				}
				checkELU(t, alpha, src)
			}
		}
		checkELU(t, 1, nil)
	})
}

// TestELUGradMatchesScalarBitwise pins the packed ELU backward factor to the
// scalar expression, edge values at every lane of every tail length.
func TestELUGradMatchesScalarBitwise(t *testing.T) {
	forEachKernelFamily(t, func(t *testing.T) {
		rng := NewRNG(18)
		for _, alpha := range []float64{1, 0.37} {
			for n := 1; n <= 17; n++ {
				for round := 0; round < 200; round++ {
					dy, pre, y := randVec(n, rng), randVec(n, rng), randVec(n, rng)
					for i := range pre {
						if rng.Float64() < 0.3 {
							pre[i] = eluEdges[rng.Intn(len(eluEdges))]
						}
						if rng.Float64() < 0.1 {
							dy[i] = eluEdges[rng.Intn(len(eluEdges))]
						}
						if rng.Float64() < 0.1 {
							y[i] = -alpha
						}
					}
					dst := make([]float64, n)
					ELUGrad(alpha, dy, pre, y, dst)
					for i := range dst {
						want := dy[i]
						if !(pre[i] >= 0) {
							want = dy[i] * (y[i] + alpha)
						}
						if math.Float64bits(dst[i]) != math.Float64bits(want) {
							t.Fatalf("alpha=%v n=%d: ELUGrad(dy=%v pre=%v y=%v)[%d] = %#x, want %#x",
								alpha, n, dy[i], pre[i], y[i], i, math.Float64bits(dst[i]), math.Float64bits(want))
						}
					}
				}
			}
		}
	})
}

// FuzzELUMatchesScalar lets the fuzzer look for an argument (and alpha) where
// the packed exp and math.Exp part ways.
func FuzzELUMatchesScalar(f *testing.F) {
	for _, e := range eluEdges {
		f.Add(e, 1.0, uint8(3))
	}
	f.Add(-3.25, 0.37, uint8(11))
	f.Fuzz(func(t *testing.T, x, alpha float64, pos uint8) {
		if math.IsNaN(alpha) {
			t.Skip() // two NaNs meeting: the surviving payload is operand-order dependent
		}
		src := make([]float64, 17)
		for i := range src {
			src[i] = x * float64(i+1) / 8
		}
		src[int(pos)%len(src)] = x
		checkELU(t, alpha, src)
	})
}

// sigTanhEdges are the inputs around every branch point of the packed sigmoid
// and tanh: signed zeros, infinities, NaN, denormals, math.tanh's 0.625 and
// 0.5·MAXLOG switches with both neighbours, ±37.43 (where 1 + exp(-x) starts
// rounding to 1), the ±700 range check with both neighbours, and math.Exp's
// overflow and underflow arguments.
var sigTanhEdges = func() []float64 {
	const halfMaxLog = 0.5 * 8.8029691931113054295988e+01
	edges := []float64{
		0, math.NaN(), math.Inf(1), 5e-324, math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308,
		1e-300, 1e-17, 1e-8, 0.1, 0.5, 1, 10, 36.7, 37.43, 50, 699.5, 709.78, 745.13, 1000, 1e300, math.MaxFloat64,
	}
	for _, v := range []float64{0.625, halfMaxLog, 700} {
		edges = append(edges, v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1)))
	}
	for _, e := range edges {
		edges = append(edges, -e)
	}
	return edges
}()

func checkSigmoidTanh(t *testing.T, src []float64) {
	t.Helper()
	for _, fn := range []struct {
		name string
		f    func(src, dst []float64)
		ref  func(float64) float64
	}{
		{"Sigmoid", Sigmoid, func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }},
		{"Tanh", Tanh, math.Tanh},
	} {
		dst := make([]float64, len(src))
		fn.f(src, dst)
		aliased := append([]float64(nil), src...)
		fn.f(aliased, aliased)
		for i, x := range src {
			want := math.Float64bits(fn.ref(x))
			if got := math.Float64bits(dst[i]); got != want {
				t.Fatalf("n=%d: %s(%v = %#x)[%d] = %#x, want %#x", len(src), fn.name, x, math.Float64bits(x), i, got, want)
			}
			if got := math.Float64bits(aliased[i]); got != want {
				t.Fatalf("n=%d aliased: %s(%v)[%d] = %#x, want %#x", len(src), fn.name, x, i, got, want)
			}
		}
	}
}

// TestSigmoidTanhMatchScalarBitwise pins the packed sigmoid and tanh to
// 1/(1+math.Exp(-x)) and math.Tanh(x): every edge input at every lane of
// every length 0-33 (every tail mask, and out-of-range groups first, last and
// in the middle), then a million random arguments from denormal-adjacent
// scales to past the range check — in place and out of place, under each
// kernel family.
func TestSigmoidTanhMatchScalarBitwise(t *testing.T) {
	forEachKernelFamily(t, func(t *testing.T) {
		rng := NewRNG(19)
		for n := 0; n <= 33; n++ {
			src := make([]float64, n)
			for _, e := range sigTanhEdges {
				for pos := 0; pos < n; pos++ {
					for i := range src {
						src[i] = rng.Normal(0, 3)
					}
					src[pos] = e
					checkSigmoidTanh(t, src)
				}
			}
			checkSigmoidTanh(t, src)
		}
		src := make([]float64, 1<<12)
		for round := 0; round < 260; round++ {
			scale := math.Pow(10, float64(round%13)-9)
			for i := range src {
				src[i] = rng.Normal(0, 1) * scale
			}
			checkSigmoidTanh(t, src)
		}
	})
}

// FuzzSigmoidTanhMatchScalar lets the fuzzer look for an argument where the
// packed kernels and the toolchain's math.Exp / math.Tanh part ways.
func FuzzSigmoidTanhMatchScalar(f *testing.F) {
	for _, e := range sigTanhEdges {
		f.Add(e, uint8(3))
	}
	f.Add(-3.25, uint8(11))
	f.Fuzz(func(t *testing.T, x float64, pos uint8) {
		src := make([]float64, 17)
		for i := range src {
			src[i] = x * float64(i+1) / 8
		}
		src[int(pos)%len(src)] = x
		checkSigmoidTanh(t, src)
	})
}
