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
// supports (avx512, portable), so the Go tiles are exercised on a wide host
// instead of silently going untested.
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
				AddMulTMat(a, b, got)
				for s := 0; s < batch; s++ {
					want.AddOuter(a.Row(s), b.Row(s))
				}
				if !got.Equal(want, 0) {
					t.Fatalf("batch=%d shape=%dx%d: AddMulTMat diverges from sequential AddOuter",
						batch, sh.r, sh.c)
				}
			}
		}
	})
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b Vec) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestKernelFamilyIsOneOfTwo pins the family set — avx512 where the host has
// it, then portable, the detected one restored afterwards — and, under each
// (so always with the wide switch off), drives the exported entry points the
// layers call over the shapes TestGemm512MatchesScalarReference draws against
// plain scalar loops, bit for bit.
func TestKernelFamilyIsOneOfTwo(t *testing.T) {
	detected := KernelFamily()
	var visited []string
	ForEachKernelFamily(func(family string) {
		visited = append(visited, family)
		if got := KernelFamily(); got != family || (family != "avx512" && family != "portable") {
			t.Fatalf("family %q visited with KernelFamily() = %q", family, got)
		}
		t.Run(family, testEntryPointsMatchScalarLoops)
	})
	if n := len(visited); n > 2 || visited[0] != detected || visited[n-1] != "portable" {
		t.Fatalf("visited %v on a host that detected %q", visited, detected)
	}
	if got := KernelFamily(); got != detected {
		t.Fatalf("family after the walk = %q, detected %q", got, detected)
	}
}

func testEntryPointsMatchScalarLoops(t *testing.T) {
	rng := NewRNG(19)
	for iter := 0; iter < 400; iter++ {
		m, k, n := 1+rng.Intn(9), rng.Intn(71), 1+rng.Intn(140)
		a, b := randDense(m, k, rng), randDense(n, k, rng)
		sprinkleZeros(a.Data, rng)
		bt := NewDense(k, n)
		TransposeInto(b, bt)

		got, want := randDense(m, n, rng), NewDense(m, n)
		MulMatTWithBT(a, b, bt, got)
		for i := 0; i < m; i++ {
			naiveMulVec(b, a.Row(i), want.Row(i))
		}
		if !sameBits(got.Data, want.Data) {
			t.Fatalf("iter %d m=%d k=%d n=%d: MulMatTWithBT differs from the scalar dot products", iter, m, k, n)
		}
		x, y := a.Row(0), randVec(n, rng)
		MulVecWithBT(b, bt, x, y)
		if !sameBits(y, want.Row(0)) {
			t.Fatalf("iter %d k=%d n=%d: MulVecWithBT differs from the scalar dot products", iter, k, n)
		}

		// c (k×n) += aᵀ·got: sample s adds a[s][o]·got[s] to row o, zero
		// coefficients skipped, samples ascending.
		c := randDense(k, n, rng)
		wantC := c.Clone()
		AddMulTMat(a, got, c)
		for s := 0; s < m; s++ {
			for o := 0; o < k; o++ {
				if coef := a.At(s, o); coef != 0 {
					for j, v := range got.Row(s) {
						wantC.Row(o)[j] += coef * v
					}
				}
			}
		}
		if !sameBits(c.Data, wantC.Data) {
			t.Fatalf("iter %d B=%d M=%d N=%d: AddMulTMat differs from the scalar rank-1 loop", iter, m, k, n)
		}

		val, grad, mom, vel := randVec(n, rng), randVec(n, rng), randVec(n, rng), randVec(n, rng)
		for i := range vel {
			vel[i] *= vel[i]
		}
		wantVal, wantM, wantV := val.Clone(), mom.Clone(), vel.Clone()
		FusedAdam(val, grad, mom, vel, 0.9, 0.999, 0.19, 0.002, 1e-3, 1e-8)
		fusedAdamScalar(wantVal, grad, wantM, wantV, 0, 0.9, 0.999, 0.19, 0.002, 1e-3, 1e-8)
		if !sameBits(val, wantVal) || !sameBits(mom, wantM) || !sameBits(vel, wantV) {
			t.Fatalf("iter %d n=%d: FusedAdam differs from the scalar loop", iter, n)
		}

		checkELU(t, 1, got.Row(0))
	}
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
		"AddMulTMat": func() { AddMulTMat(a, NewDense(3, 3), NewDense(3, 3)) },
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
