package mat

import "math"

// Register-tiled inner kernels shared by the GEMV and GEMM entry points.
//
// Every kernel preserves the per-output-element accumulation order of the
// straightforward scalar loops: a tile processes several independent outputs
// (or several in-order contributions to one output) with one accumulator per
// output, and contributions to any single element are always added in the
// same sequence the scalar path would use. Batched results are therefore
// bitwise identical to the per-vector results, which is what lets the
// experiment metrics stay exactly reproducible while the hot loops get the
// instruction-level parallelism and memory reuse of a 4-way tile.
//
// The row slices are re-sliced to the vector length before each inner loop;
// combined with `range` indexing this lets the compiler prove every access
// in bounds and drop the per-element checks (verified with
// -d=ssa/check_bce), which matters as much as the tiling itself.

// gemvRows4 computes dst[i0..i0+rows) = A[i0..i0+rows) * x for a row-major
// a with the given stride, processing rows in tiles of four so x is loaded
// once per tile. rows may be any non-negative count.
func gemvRows4(a []float64, i0, rows, cols int, x, dst []float64) {
	n := len(x)
	i := i0
	for ; i+4 <= i0+rows; i += 4 {
		r0 := a[i*cols : i*cols+cols][:n]
		r1 := a[(i+1)*cols : (i+1)*cols+cols][:n]
		r2 := a[(i+2)*cols : (i+2)*cols+cols][:n]
		r3 := a[(i+3)*cols : (i+3)*cols+cols][:n]
		var s0, s1, s2, s3 float64
		for j, xv := range x {
			s0 += r0[j] * xv
			s1 += r1[j] * xv
			s2 += r2[j] * xv
			s3 += r3[j] * xv
		}
		dst[i] = s0
		dst[i+1] = s1
		dst[i+2] = s2
		dst[i+3] = s3
	}
	for ; i < i0+rows; i++ {
		row := a[i*cols : i*cols+cols][:n]
		var s float64
		for j, w := range row {
			s += w * x[j]
		}
		dst[i] = s
	}
}

// axpyRow accumulates dst += xi * a[row] with the seed's skip-zero shortcut.
func axpyRow(a []float64, row, cols int, xi float64, dst []float64) {
	if xi == 0 {
		return
	}
	r := a[row*cols : row*cols+cols][:len(dst)]
	for j := range dst {
		dst[j] += r[j] * xi
	}
}

// eluScalar is the reference ELU loop (and the only one off the AVX-512+FMA
// fast path): the expression shape of nn.ELU.F, element by element.
func eluScalar(alpha float64, src, dst []float64) {
	for i, x := range src {
		if x >= 0 {
			dst[i] = x
		} else {
			dst[i] = alpha * (math.Exp(x) - 1)
		}
	}
}

// eluGradScalar is the reference ELU backward loop, the expression shape of
// nn.ELU.Deriv times the incoming gradient.
func eluGradScalar(alpha float64, dy, pre, y, dst []float64) {
	for i, g := range dy {
		if pre[i] >= 0 {
			dst[i] = g
		} else {
			dst[i] = g * (y[i] + alpha)
		}
	}
}

// sigmoidScalar is the reference logistic loop, the expression shape of
// nn.Sigmoid.F.
func sigmoidScalar(src, dst []float64) {
	for i, x := range src {
		dst[i] = 1 / (1 + math.Exp(-x))
	}
}

// tanhScalar is the reference tanh loop.
func tanhScalar(src, dst []float64) {
	for i, x := range src {
		dst[i] = math.Tanh(x)
	}
}

// fusedAdamScalar is the portable Adam update for elements [start, len),
// with the exact expression shapes of the historical optimizer loop.
func fusedAdamScalar(val, grad, m, v Vec, start int, b1, b2, c1, c2, lr, eps float64) {
	for j := start; j < len(val); j++ {
		g := grad[j]
		m[j] = b1*m[j] + (1-b1)*g
		v[j] = b2*v[j] + (1-b2)*g*g
		mHat := m[j] / c1
		vHat := v[j] / c2
		val[j] -= lr * mHat / (math.Sqrt(vHat) + eps)
	}
}

// gemvTAdd computes dst += A^T * x (dst length cols, x length rows) — the
// shared entry point of every axpy-direction GEMV loop. Zero coefficients
// are skipped and per output element the non-zero contributions arrive in
// strictly ascending row order, in both kernel families: AVX-512 hosts run the
// register tile as a one-row GEMM, everything else (and any dst too narrow
// for a vector) the Go tile below, which defines that add sequence.
func gemvTAdd(a []float64, rows, cols int, x, dst []float64) {
	if n := len(dst); useAVX512 && n >= 8 {
		gemm512(dst, n, x, 0, 1, a, cols, 1, rows, n, false)
		return
	}
	gemvTAddRows4(a, rows, cols, x, dst)
}

// gemvTAddRows4 is gemvTAdd's Go tile: dst += A^T * x, four matrix rows per
// pass. Per element dst[j] the contributions arrive in ascending row order,
// exactly as the scalar loop adds them; a tile containing a zero coefficient
// falls back to the sequential per-row path so the skip-zero semantics of the
// scalar kernel are preserved verbatim.
func gemvTAddRows4(a []float64, rows, cols int, x, dst []float64) {
	n := len(dst)
	i := 0
	for ; i+4 <= rows; i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		if x0 == 0 || x1 == 0 || x2 == 0 || x3 == 0 {
			axpyRow(a, i, cols, x0, dst)
			axpyRow(a, i+1, cols, x1, dst)
			axpyRow(a, i+2, cols, x2, dst)
			axpyRow(a, i+3, cols, x3, dst)
			continue
		}
		r0 := a[i*cols : i*cols+cols][:n]
		r1 := a[(i+1)*cols : (i+1)*cols+cols][:n]
		r2 := a[(i+2)*cols : (i+2)*cols+cols][:n]
		r3 := a[(i+3)*cols : (i+3)*cols+cols][:n]
		for j := range dst {
			s := dst[j]
			s += r0[j] * x0
			s += r1[j] * x1
			s += r2[j] * x2
			s += r3[j] * x3
			dst[j] = s
		}
	}
	for ; i < rows; i++ {
		axpyRow(a, i, cols, x[i], dst)
	}
}
