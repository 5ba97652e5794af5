package cluster

import (
	"math"
	"math/rand"
	"testing"
)

// TestPowerCurveMatchesMathPow pins pow14, the power curve's x^1.4, to
// math.Pow(x, 1.4) bit for bit. pow14 copies math.Pow's decomposition for
// y = 1.4, so a toolchain whose Pow, Exp or Log changes must fail here rather
// than silently move every energy figure.
func TestPowerCurveMatchesMathPow(t *testing.T) {
	bad := 0
	check := func(x float64) {
		got, want := pow14(x), math.Pow(x, 1.4)
		if math.Float64bits(got) != math.Float64bits(want) {
			if bad++; bad <= 10 {
				t.Errorf("pow14(%v [%#016x]) = %v [%#016x], math.Pow = %v [%#016x]",
					x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}

	// Edges: zero, the smallest subnormal, the 2^-600 cut and its
	// neighbours, and the top of the clamped utilization range.
	cut := 0x1p-600
	for _, x := range []float64{
		0, math.SmallestNonzeroFloat64, math.Nextafter(cut, 0), cut, math.Nextafter(cut, 1),
		0.5, math.Nextafter(1, 0), 1, math.NaN(),
	} {
		check(x)
	}

	r := rand.New(rand.NewSource(1))
	// Uniform utilizations in [0, 1]: the values Active sees.
	for i := 0; i < 10_000_000; i++ {
		check(r.Float64())
	}
	// Log-uniform down to 2^-1074: a uniform bit pattern in [0, 1] puts
	// equal weight on every binade, subnormals included.
	one := math.Float64bits(1)
	for i := 0; i < 1_000_000; i++ {
		check(math.Float64frombits(r.Uint64() % (one + 1)))
	}
	if bad > 0 {
		t.Fatalf("%d mismatches against math.Pow", bad)
	}
}
