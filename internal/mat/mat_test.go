package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVecBasicOps(t *testing.T) {
	v := Vec{1, 2, 3}
	b := Vec{4, 5, 6}

	sum := v.Clone()
	sum.Add(b)
	want := Vec{5, 7, 9}
	for i := range want {
		if sum[i] != want[i] {
			t.Fatalf("Add: got %v want %v", sum, want)
		}
	}

	if got := v.Sum(); got != 6 {
		t.Fatalf("Sum: got %v want 6", got)
	}
	if got := v.Mean(); got != 2 {
		t.Fatalf("Mean: got %v want 2", got)
	}
	if got := (Vec{}).Mean(); got != 0 {
		t.Fatalf("Mean of empty: got %v want 0", got)
	}
}

func TestVecMaxMin(t *testing.T) {
	v := Vec{3, -1, 7, 7, 2}
	if i, x := v.Max(); i != 2 || x != 7 {
		t.Fatalf("Max: got (%d,%v) want (2,7)", i, x)
	}
}

func TestVecConcat(t *testing.T) {
	got := Concat(Vec{1}, Vec{2, 3}, Vec{})
	want := Vec{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Concat length: got %d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Concat: got %v want %v", got, want)
		}
	}
}

func TestVecLengthMismatchPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"Add", func() { Vec{1}.Add(Vec{1, 2}) }},
		{"CopyFrom", func() { Vec{1}.CopyFrom(Vec{1, 2}) }},
		{"MaxEmpty", func() { Vec{}.Max() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}

func TestDenseMulVec(t *testing.T) {
	m := NewDense(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	x := Vec{1, 0, -1}
	dst := NewVec(2)
	m.MulVec(x, dst)
	if dst[0] != -2 || dst[1] != -2 {
		t.Fatalf("MulVec: got %v want [-2 -2]", dst)
	}

	xt := Vec{1, 1}
	dstT := NewVec(3)
	m.MulVecT(xt, dstT)
	want := Vec{5, 7, 9}
	for i := range want {
		if dstT[i] != want[i] {
			t.Fatalf("MulVecT: got %v want %v", dstT, want)
		}
	}
}

func TestDenseAddOuter(t *testing.T) {
	m := NewDense(2, 2)
	m.AddOuter(Vec{1, 2}, Vec{3, 4})
	want := []float64{3, 4, 6, 8}
	for i := range want {
		if m.Data[i] != want[i] {
			t.Fatalf("AddOuter: got %v want %v", m.Data, want)
		}
	}
}

func TestDenseCloneIndependence(t *testing.T) {
	m := NewDense(2, 2)
	m.Data[0] = 1
	c := m.Clone()
	c.Data[0] = 42
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases original storage")
	}
	if !m.Equal(m, 0) {
		t.Fatal("matrix not equal to itself")
	}
	if m.Equal(c, 1e-9) {
		t.Fatal("distinct matrices reported equal")
	}
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Equal reports whether m and n have identical shape and all elements are
// within tol of each other.
func (m *Dense) Equal(n *Dense, tol float64) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i, x := range m.Data {
		if math.Abs(x-n.Data[i]) > tol {
			return false
		}
	}
	return true
}

func TestDenseRowAliases(t *testing.T) {
	m := NewDense(2, 3)
	m.Row(1)[2] = 5
	if m.At(1, 2) != 5 {
		t.Fatal("Row must alias matrix storage")
	}
}

// Property: (Mᵀ x)·y == x·(M y) for all M, x, y — the defining adjoint
// identity that the backprop code relies on.
func TestDenseAdjointProperty(t *testing.T) {
	rng := NewRNG(1)
	f := func(seed int64) bool {
		g := NewRNG(seed)
		rows, cols := 1+g.Intn(8), 1+g.Intn(8)
		m := NewDense(rows, cols)
		rng.FillNormal(m, 0, 1)
		x := NewVec(rows)
		y := NewVec(cols)
		rng.FillVecNormal(x, 0, 1)
		rng.FillVecNormal(y, 0, 1)

		mty := NewVec(rows)
		m.MulVec(y, mty)
		mtx := NewVec(cols)
		m.MulVecT(x, mtx)
		var lhs, rhs float64
		for j := range y {
			lhs += mtx[j] * y[j]
		}
		for i := range x {
			rhs += x[i] * mty[i]
		}
		return almostEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: rank-1 update agrees with the elementwise definition.
func TestDenseAddOuterProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := NewRNG(seed)
		rows, cols := 1+g.Intn(6), 1+g.Intn(6)
		a := NewVec(rows)
		b := NewVec(cols)
		g.FillVecNormal(a, 0, 2)
		g.FillVecNormal(b, 0, 2)
		m := NewDense(rows, cols)
		g.FillNormal(m, 0, 1)
		ref := m.Clone()
		m.AddOuter(a, b)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				want := ref.At(i, j) + a[i]*b[j]
				if !almostEqual(m.At(i, j), want, 1e-12) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDenseShapePanics(t *testing.T) {
	m := NewDense(2, 3)
	cases := []struct {
		name string
		fn   func()
	}{
		{"MulVec", func() { m.MulVec(NewVec(2), NewVec(2)) }},
		{"MulVecT", func() { m.MulVecT(NewVec(3), NewVec(3)) }},
		{"AddOuter", func() { m.AddOuter(NewVec(3), NewVec(3)) }},
		{"CopyFrom", func() { m.CopyFrom(NewDense(3, 2)) }},
		{"NegativeDims", func() { NewDense(-1, 2) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seeded RNGs diverged")
		}
	}
	c := NewRNG(7)
	d := NewRNG(8)
	same := true
	for i := 0; i < 16; i++ {
		if c.Float64() != d.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("differently-seeded RNGs produced identical streams")
	}
}

func TestRNGNormalMoments(t *testing.T) {
	g := NewRNG(42)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := g.Normal(3, 2)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if !almostEqual(mean, 3, 0.05) {
		t.Fatalf("Normal mean: got %v want 3", mean)
	}
	if !almostEqual(variance, 4, 0.15) {
		t.Fatalf("Normal variance: got %v want 4", variance)
	}
}

func TestRNGExponentialMean(t *testing.T) {
	g := NewRNG(9)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += g.Exponential(0.5)
	}
	if mean := sum / n; !almostEqual(mean, 2, 0.05) {
		t.Fatalf("Exponential mean: got %v want 2", mean)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Exponential with rate 0 should panic")
		}
	}()
	g.Exponential(0)
}

func TestRNGXavierBounds(t *testing.T) {
	g := NewRNG(3)
	m := NewDense(10, 20)
	g.FillXavier(m, 20, 10)
	limit := math.Sqrt(6.0 / 30.0)
	for _, x := range m.Data {
		if x < -limit || x > limit {
			t.Fatalf("Xavier sample %v outside ±%v", x, limit)
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	g := NewRNG(5)
	a := g.Split()
	b := g.Split()
	equal := true
	for i := 0; i < 16; i++ {
		if a.Float64() != b.Float64() {
			equal = false
			break
		}
	}
	if equal {
		t.Fatal("Split returned correlated streams")
	}
}
