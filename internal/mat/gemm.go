package mat

import "fmt"

// Batched matrix-matrix products. These are the compute core behind the
// minibatch neural-network paths: one GEMM replaces a loop of GEMV calls,
// amortizing weight-matrix traffic across the whole batch while producing
// bitwise-identical results row for row (see kernels.go for the ordering
// contract).

// BTUsable reports whether a cached transpose of an outRows×K matrix would
// actually be read by MulMatTWithBT/MulVecWithBT — callers skip building
// and maintaining the cache otherwise (no AVX-512, or the output is too
// narrow for a vector).
func BTUsable(outRows int) bool { return useAVX512 && outRows >= 8 }

// MulMatTWithBT computes c = a * bᵀ, where a is M×K, b is N×K, and c is M×N.
// Row i of c equals b.MulVec(a.Row(i), ...) exactly: this is the layout used
// by a batched dense-layer forward pass Y = X·Wᵀ. bt is a caller-maintained
// transpose of b (bt = bᵀ, shaped K×N; e.g. a layer caching Wᵀ between weight
// updates): with it, AVX-512 hosts accumulate each output row as a sequence of
// vectorized axpys over k. For every output element the contributions still
// arrive in ascending k — the exact order of the dot products — so both paths
// produce identical bits; the transposed form just exposes contiguous vectors
// to the register tile. bt may be nil, which always takes the dot-direction
// path.
// c may not alias a or b.
func MulMatTWithBT(a, b, bt, c *Dense) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows ||
		(bt != nil && (bt.Rows != b.Cols || bt.Cols != b.Rows)) {
		panic(fmt.Sprintf("mat: MulMatTWithBT shape mismatch a=%dx%d b=%dx%d c=%dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	if bt != nil && BTUsable(b.Rows) {
		gemmInto(a, bt, c)
		return
	}
	for i := 0; i < a.Rows; i++ {
		gemvRows4(b.Data, 0, b.Rows, b.Cols, a.Row(i), c.Row(i))
	}
}

// gemmInto computes c = a * w (a is M×K, w is K×N) with gemvTAdd's per-row
// semantics: every sum starts at +0.0, takes its terms in ascending k and
// skips zero coefficients. AVX-512 hosts run the whole product on the
// register tile.
func gemmInto(a, w, c *Dense) {
	if useAVX512 && w.Cols >= 8 {
		gemm512(c.Data, c.Cols, a.Data, a.Cols, 1, w.Data, w.Cols, a.Rows, a.Cols, w.Cols, true)
		return
	}
	c.Zero()
	for i := 0; i < a.Rows; i++ {
		gemvTAdd(w.Data, w.Rows, w.Cols, a.Row(i), c.Row(i))
	}
}

// TransposeInto writes srcᵀ into dst (shaped src.Cols × src.Rows). Four source
// rows are walked together so every destination row receives four adjacent
// elements per visit instead of one — the layers rebuild their cached Wᵀ
// after every optimizer step, and one-element strided stores made that
// rebuild cost as much as a small GEMM.
func TransposeInto(src, dst *Dense) { TransposeRowsInto(src, dst, 0, src.Rows) }

// TransposeRowsInto writes rows [r0, r1) of src into columns [r0, r1) of
// dst = srcᵀ, leaving dst's other columns alone.
func TransposeRowsInto(src, dst *Dense, r0, r1 int) {
	if dst.Rows != src.Cols || dst.Cols != src.Rows || r0 < 0 || r1 > src.Rows || r0 > r1 {
		panic(fmt.Sprintf("mat: TransposeInto shape mismatch src=%dx%d dst=%dx%d rows [%d,%d)",
			src.Rows, src.Cols, dst.Rows, dst.Cols, r0, r1))
	}
	rows, cols := src.Rows, src.Cols
	i := r0
	for ; i+4 <= r1; i += 4 {
		s0 := src.Data[i*cols : i*cols+cols]
		s1 := src.Data[(i+1)*cols : (i+1)*cols+cols][:cols]
		s2 := src.Data[(i+2)*cols : (i+2)*cols+cols][:cols]
		s3 := src.Data[(i+3)*cols : (i+3)*cols+cols][:cols]
		for j, v := range s0 {
			d := dst.Data[j*rows+i : j*rows+i+4]
			d[0], d[1], d[2], d[3] = v, s1[j], s2[j], s3[j]
		}
	}
	for ; i < r1; i++ {
		row := src.Data[i*cols : (i+1)*cols]
		for j, v := range row {
			dst.Data[j*rows+i] = v
		}
	}
}

// MulVecWithBT computes dst = b*x using the cached transpose bt of b on
// AVX-512 hosts (bt may be nil to force the plain GEMV path); bitwise
// identical to b.MulVec(x, dst).
func MulVecWithBT(b, bt *Dense, x, dst Vec) {
	if len(x) != b.Cols || len(dst) != b.Rows {
		panic(fmt.Sprintf("mat: MulVecWithBT shape mismatch m=%dx%d len(x)=%d len(dst)=%d",
			b.Rows, b.Cols, len(x), len(dst)))
	}
	if bt != nil && BTUsable(b.Rows) {
		for j := range dst {
			dst[j] = 0
		}
		gemvTAdd(bt.Data, bt.Rows, bt.Cols, x, dst)
		return
	}
	gemvRows4(b.Data, 0, b.Rows, b.Cols, x, dst)
}

// MulMat computes c = a * b, where a is M×K, b is K×N, and c is M×N. Row i
// of c equals b.MulVecT(a.Row(i), ...) exactly, including the skip-zero
// shortcut: this is the layout used by a batched backward pass dX = dY·W.
// c may not alias a or b.
func MulMat(a, b, c *Dense) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulMat shape mismatch a=%dx%d b=%dx%d c=%dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	gemmInto(a, b, c)
}

// AddMulTMat performs the rank-K update c += aᵀ * b, where a is B×M, b is
// B×N, and c is M×N. The batch dimension B is the outermost loop, so for
// every element of c the per-sample contributions accumulate in ascending
// sample order — exactly the sequence a loop of AddOuter(a.Row(s), b.Row(s))
// calls would produce, including the skip-zero shortcut. This is the batched
// weight-gradient update dW += dYᵀ·X.
func AddMulTMat(a, b, c *Dense) { AddMulTMatRows(a, b, c, 0, c.Rows) }

// AddMulTMatRows is AddMulTMat restricted to rows [o0, o1) of c (columns
// [o0, o1) of a): every element it writes receives the same terms in the
// same order as under AddMulTMat, and no other element is touched, so
// disjoint row ranges may be updated concurrently.
func AddMulTMatRows(a, b, c *Dense, o0, o1 int) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols || o0 < 0 || o1 > c.Rows || o0 > o1 {
		panic(fmt.Sprintf("mat: AddMulTMat shape mismatch a=%dx%d b=%dx%d c=%dx%d rows [%d,%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols, o0, o1))
	}
	if o0 == o1 {
		return
	}
	if useAVX512 && c.Cols >= 8 {
		// Output row o takes coefficient a[s][o] at step s: A read column-wise.
		gemm512(c.Data[o0*c.Cols:], c.Cols, a.Data[o0:], 1, a.Cols, b.Data, b.Cols, o1-o0, a.Rows, c.Cols, false)
		return
	}
	s := 0
	for ; s+4 <= a.Rows; s += 4 {
		b0 := b.Row(s)
		b1 := b.Row(s + 1)
		b2 := b.Row(s + 2)
		b3 := b.Row(s + 3)
		for o := o0; o < o1; o++ {
			a0 := a.At(s, o)
			a1 := a.At(s+1, o)
			a2 := a.At(s+2, o)
			a3 := a.At(s+3, o)
			crow := c.Row(o)
			if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
				// Preserve the scalar path's skip-zero semantics exactly.
				addScaled(crow, a0, b0)
				addScaled(crow, a1, b1)
				addScaled(crow, a2, b2)
				addScaled(crow, a3, b3)
				continue
			}
			for j := range crow {
				v := crow[j]
				v += a0 * b0[j]
				v += a1 * b1[j]
				v += a2 * b2[j]
				v += a3 * b3[j]
				crow[j] = v
			}
		}
	}
	for ; s < a.Rows; s++ {
		bs := b.Row(s)
		for o := o0; o < o1; o++ {
			addScaled(c.Row(o), a.At(s, o), bs)
		}
	}
}

// AddScaled computes y += alpha*x, skipping entirely when alpha is zero
// (which is AddOuter's per-row shortcut). With alpha == 1 the result is
// bitwise identical to y.Add(x), since multiplying by 1.0 is exact.
func AddScaled(y Vec, alpha float64, x Vec) { addScaled(y, alpha, x) }

func addScaled(y Vec, alpha float64, x Vec) {
	if alpha == 0 {
		return
	}
	x = x[:len(y)]
	if useAVX512 && len(y) >= 8 {
		vaxpy1(y, x, alpha)
		return
	}
	for j := range y {
		y[j] += alpha * x[j]
	}
}
