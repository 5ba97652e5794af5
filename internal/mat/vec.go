// Package mat provides the small dense linear-algebra kernels used by the
// neural-network and reinforcement-learning substrates. It is deliberately
// minimal: float64 vectors, row-major dense matrices, and the BLAS-1/2
// operations the paper's networks need (mat-vec, transposed mat-vec, rank-1
// update). Everything is allocation-conscious so the hot training loops can
// reuse buffers.
package mat

import (
	"fmt"
	"math"
)

// Vec is a dense float64 vector.
type Vec []float64

// NewVec returns a zeroed vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Fill sets every element to s.
func (v Vec) Fill(s float64) {
	for i := range v {
		v[i] = s
	}
}

// Zero sets every element to 0.
func (v Vec) Zero() { v.Fill(0) }

// Scale multiplies every element by s in place.
func (v Vec) Scale(s float64) {
	for i := range v {
		v[i] *= s
	}
}

// Add adds b to v element-wise in place. It panics if lengths differ.
func (v Vec) Add(b Vec) {
	if len(v) != len(b) {
		panic(fmt.Sprintf("mat: Add length mismatch %d != %d", len(v), len(b)))
	}
	for i := range v {
		v[i] += b[i]
	}
}

// Sub subtracts b from v element-wise in place. It panics if lengths differ.
func (v Vec) Sub(b Vec) {
	if len(v) != len(b) {
		panic(fmt.Sprintf("mat: Sub length mismatch %d != %d", len(v), len(b)))
	}
	for i := range v {
		v[i] -= b[i]
	}
}

// MulElem multiplies v by b element-wise in place. It panics if lengths
// differ.
func (v Vec) MulElem(b Vec) {
	if len(v) != len(b) {
		panic(fmt.Sprintf("mat: MulElem length mismatch %d != %d", len(v), len(b)))
	}
	for i := range v {
		v[i] *= b[i]
	}
}

// Dot returns the inner product of a and b. It panics if lengths differ.
func Dot(a, b Vec) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func (v Vec) Norm2() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Sum returns the sum of all elements of v.
func (v Vec) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of v, or 0 for an empty vector.
func (v Vec) Mean() float64 {
	if len(v) == 0 {
		return 0
	}
	return v.Sum() / float64(len(v))
}

// Max returns the maximum element and its index. It panics on an empty
// vector.
func (v Vec) Max() (idx int, val float64) {
	if len(v) == 0 {
		panic("mat: Max of empty vector")
	}
	idx, val = 0, v[0]
	for i, x := range v {
		if x > val {
			idx, val = i, x
		}
	}
	return idx, val
}

// Min returns the minimum element and its index. It panics on an empty
// vector.
func (v Vec) Min() (idx int, val float64) {
	if len(v) == 0 {
		panic("mat: Min of empty vector")
	}
	idx, val = 0, v[0]
	for i, x := range v {
		if x < val {
			idx, val = i, x
		}
	}
	return idx, val
}

// CopyFrom copies src into v. It panics if lengths differ.
func (v Vec) CopyFrom(src Vec) {
	if len(v) != len(src) {
		panic(fmt.Sprintf("mat: CopyFrom length mismatch %d != %d", len(v), len(src)))
	}
	copy(v, src)
}

// Concat returns a new vector that is the concatenation of the inputs.
func Concat(vs ...Vec) Vec {
	n := 0
	for _, v := range vs {
		n += len(v)
	}
	out := make(Vec, 0, n)
	for _, v := range vs {
		out = append(out, v...)
	}
	return out
}

// Clamp limits every element of v to [lo, hi] in place.
func (v Vec) Clamp(lo, hi float64) {
	for i, x := range v {
		if x < lo {
			v[i] = lo
		} else if x > hi {
			v[i] = hi
		}
	}
}

// HasNaN reports whether any element is NaN or infinite.
func (v Vec) HasNaN() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}
