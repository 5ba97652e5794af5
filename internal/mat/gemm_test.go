package mat

import (
	"math"
	"testing"
)

// naiveMulVec is the pre-tiling scalar reference for dst = m*x.
func naiveMulVec(m *Dense, x, dst Vec) {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, w := range row {
			s += w * x[j]
		}
		dst[i] = s
	}
}

// naiveMulVecT is the pre-tiling scalar reference for dst = mᵀ*x, including
// the skip-zero shortcut.
func naiveMulVecT(m *Dense, x, dst Vec) {
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, w := range row {
			dst[j] += w * xi
		}
	}
}

// forEachKernelFamily runs f as one subtest per kernel family this host
// supports (avx512, avx2, portable), so the narrower families are exercised
// on a wide host instead of silently going untested.
func forEachKernelFamily(t *testing.T, f func(t *testing.T)) {
	t.Logf("detected kernel family: %s", KernelFamily())
	ForEachKernelFamily(func(family string) { t.Run(family, f) })
}

// testShapes covers edge shapes (1×N, N×1, tile remainders) plus bulk sizes.
var testShapes = []struct{ r, c int }{
	{1, 1}, {1, 7}, {7, 1}, {2, 3}, {3, 2}, {4, 4}, {5, 5},
	{8, 3}, {3, 8}, {13, 17}, {17, 13}, {32, 64}, {64, 32}, {30, 103},
}

func randDense(r, c int, rng *RNG) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.Normal(0, 1)
	}
	return m
}

func randVec(n int, rng *RNG) Vec {
	v := NewVec(n)
	for i := range v {
		v[i] = rng.Normal(0, 1)
	}
	return v
}

// sprinkleZeros forces exact zeros so the skip-zero fallback paths execute.
func sprinkleZeros(v Vec, rng *RNG) {
	for i := range v {
		if rng.Float64() < 0.3 {
			v[i] = 0
		}
	}
}

func maxAbsDiff(a, b Vec) float64 {
	var d float64
	for i := range a {
		if x := math.Abs(a[i] - b[i]); x > d {
			d = x
		}
	}
	return d
}

func TestMulVecMatchesScalarReference(t *testing.T) {
	rng := NewRNG(1)
	for _, sh := range testShapes {
		m := randDense(sh.r, sh.c, rng)
		x := randVec(sh.c, rng)
		got := NewVec(sh.r)
		want := NewVec(sh.r)
		m.MulVec(x, got)
		naiveMulVec(m, x, want)
		if d := maxAbsDiff(got, want); d != 0 {
			t.Errorf("%dx%d: MulVec diverges from scalar reference by %g", sh.r, sh.c, d)
		}
		gotAdd := randVec(sh.r, rng)
		wantAdd := gotAdd.Clone()
		m.MulVecAdd(x, gotAdd)
		tmp := NewVec(sh.r)
		naiveMulVec(m, x, tmp)
		for i := range wantAdd {
			wantAdd[i] += tmp[i]
		}
		if d := maxAbsDiff(gotAdd, wantAdd); d != 0 {
			t.Errorf("%dx%d: MulVecAdd diverges by %g", sh.r, sh.c, d)
		}
	}
}

func TestMulVecTMatchesScalarReference(t *testing.T) {
	forEachKernelFamily(t, func(t *testing.T) {
		rng := NewRNG(2)
		for _, sh := range testShapes {
			m := randDense(sh.r, sh.c, rng)
			x := randVec(sh.r, rng)
			sprinkleZeros(x, rng)
			got := NewVec(sh.c)
			want := NewVec(sh.c)
			m.MulVecT(x, got)
			naiveMulVecT(m, x, want)
			if d := maxAbsDiff(got, want); d != 0 {
				t.Errorf("%dx%d: MulVecT diverges from scalar reference by %g", sh.r, sh.c, d)
			}
		}
	})
}

func TestMulMatTMatchesPerRowGEMV(t *testing.T) {
	forEachKernelFamily(t, func(t *testing.T) {
		rng := NewRNG(3)
		for _, sh := range testShapes {
			for _, batch := range []int{1, 2, 5, 32} {
				a := randDense(batch, sh.c, rng)
				b := randDense(sh.r, sh.c, rng)
				bt := NewDense(sh.c, sh.r)
				TransposeInto(b, bt)
				want := NewVec(sh.r)
				// The cached-transpose (axpy) path production runs, and the
				// dot-direction path a nil transpose selects.
				for _, tr := range []*Dense{bt, nil} {
					c := NewDense(batch, sh.r)
					MulMatTWithBT(a, b, tr, c)
					for i := 0; i < batch; i++ {
						b.MulVec(a.Row(i), want)
						if d := maxAbsDiff(c.Row(i), want); d != 0 {
							t.Fatalf("batch=%d shape=%dx%d row %d (bt=%v): MulMatTWithBT diverges by %g",
								batch, sh.r, sh.c, i, tr != nil, d)
						}
					}
				}
			}
		}
	})
}

func TestMulMatMatchesPerRowGEMVT(t *testing.T) {
	forEachKernelFamily(t, func(t *testing.T) {
		rng := NewRNG(4)
		for _, sh := range testShapes {
			for _, batch := range []int{1, 2, 5, 32} {
				a := randDense(batch, sh.r, rng)
				sprinkleZeros(a.Data, rng)
				b := randDense(sh.r, sh.c, rng)
				c := NewDense(batch, sh.c)
				MulMat(a, b, c)
				want := NewVec(sh.c)
				for i := 0; i < batch; i++ {
					b.MulVecT(a.Row(i), want)
					if d := maxAbsDiff(c.Row(i), want); d != 0 {
						t.Fatalf("batch=%d shape=%dx%d row %d: MulMat diverges by %g",
							batch, sh.r, sh.c, i, d)
					}
				}
			}
		}
	})
}

func TestAddMulTMatMatchesSequentialAddOuter(t *testing.T) {
	forEachKernelFamily(t, func(t *testing.T) {
		rng := NewRNG(5)
		for _, sh := range testShapes {
			for _, batch := range []int{1, 3, 4, 7, 32} {
				a := randDense(batch, sh.r, rng)
				sprinkleZeros(a.Data, rng)
				b := randDense(batch, sh.c, rng)
				got := randDense(sh.r, sh.c, rng)
				want := got.Clone()
				AddMulTMat(1, a, b, got)
				for s := 0; s < batch; s++ {
					want.AddOuter(1, a.Row(s), b.Row(s))
				}
				if !got.Equal(want, 0) {
					t.Fatalf("batch=%d shape=%dx%d: AddMulTMat diverges from sequential AddOuter",
						batch, sh.r, sh.c)
				}
			}
		}
	})
}

func TestTransposeInto(t *testing.T) {
	rng := NewRNG(6)
	for _, sh := range testShapes {
		src := randDense(sh.r, sh.c, rng)
		dst := randDense(sh.c, sh.r, rng)
		TransposeInto(src, dst)
		for i := 0; i < sh.r; i++ {
			for j := 0; j < sh.c; j++ {
				if dst.At(j, i) != src.At(i, j) {
					t.Fatalf("%dx%d: dst[%d][%d] = %v, want src[%d][%d] = %v", sh.r, sh.c, j, i, dst.At(j, i), i, j, src.At(i, j))
				}
			}
		}
	}
}

func TestGEMMShapePanics(t *testing.T) {
	a := NewDense(2, 3)
	b := NewDense(2, 3)
	for name, f := range map[string]func(){
		"MulMat":     func() { MulMat(a, b, NewDense(2, 3)) },
		"MulMatT":    func() { MulMatTWithBT(a, NewDense(4, 4), nil, NewDense(2, 4)) },
		"MulMatT/bt": func() { MulMatTWithBT(a, b, NewDense(2, 3), NewDense(2, 2)) },
		"AddMulTMat": func() { AddMulTMat(1, a, NewDense(3, 3), NewDense(3, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: shape mismatch did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestWorkspaceReuse(t *testing.T) {
	ws := NewWorkspace()
	v := ws.Take(8)
	v.Fill(3)
	m := ws.TakeMat(4, 4)
	m.Data[0] = 7
	ws.Reset()
	v2 := ws.Take(8)
	for _, x := range v2 {
		if x != 0 {
			t.Fatal("Take did not zero recycled memory")
		}
	}
	m2 := ws.TakeMat(4, 4)
	if m2.Rows != 4 || m2.Cols != 4 {
		t.Fatalf("TakeMat shape %dx%d", m2.Rows, m2.Cols)
	}
	for _, x := range m2.Data {
		if x != 0 {
			t.Fatal("TakeMat did not zero recycled memory")
		}
	}
	// Steady state is allocation-free.
	allocs := testing.AllocsPerRun(100, func() {
		ws.Reset()
		_ = ws.Take(8)
		_ = ws.TakeMat(4, 4)
	})
	if allocs != 0 {
		t.Fatalf("workspace steady state allocates %v per run", allocs)
	}
}

// The GEMV and cached-transpose GEMM entry points allocate nothing, in every
// kernel family, at the shapes BenchmarkMatMulVec and BenchmarkMatMulMat run.
func TestKernelsZeroAlloc(t *testing.T) {
	forEachKernelFamily(t, func(t *testing.T) {
		rng := NewRNG(5)
		W := randDense(128, 64, rng)
		WT := NewDense(64, 128)
		TransposeInto(W, WT)
		x, dst := randVec(64, rng), NewVec(128)
		X, Y := randDense(96, 64, rng), NewDense(96, 128)
		if allocs := testing.AllocsPerRun(100, func() { W.MulVec(x, dst) }); allocs != 0 {
			t.Errorf("MulVec allocates %v per run, want 0", allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { MulMatTWithBT(X, W, WT, Y) }); allocs != 0 {
			t.Errorf("MulMatTWithBT allocates %v per run, want 0", allocs)
		}
	})
}
