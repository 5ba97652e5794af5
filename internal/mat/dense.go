package mat

import "fmt"

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewDense returns a zeroed Rows x Cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: NewDense negative dims %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) Vec { return Vec(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Slice returns rows [r0, r1) of m as a header sharing its storage.
func (m *Dense) Slice(r0, r1 int) Dense {
	return Dense{Rows: r1 - r0, Cols: m.Cols, Data: m.Data[r0*m.Cols : r1*m.Cols]}
}

// Zero sets every element to 0.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// CopyFrom copies src into m. It panics on shape mismatch.
func (m *Dense) CopyFrom(src *Dense) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("mat: CopyFrom shape mismatch %dx%d != %dx%d",
			m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// MulVec computes dst = m * x. dst must have length m.Rows and x length
// m.Cols. dst may not alias x.
func (m *Dense) MulVec(x, dst Vec) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("mat: MulVec shape mismatch m=%dx%d len(x)=%d len(dst)=%d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	gemvRows4(m.Data, 0, m.Rows, m.Cols, x, dst)
}

// MulVecT computes dst = mᵀ * x. dst must have length m.Cols and x length
// m.Rows. dst may not alias x.
func (m *Dense) MulVecT(x, dst Vec) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic(fmt.Sprintf("mat: MulVecT shape mismatch m=%dx%d len(x)=%d len(dst)=%d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	for j := range dst {
		dst[j] = 0
	}
	gemvTAdd(m.Data, m.Rows, m.Cols, x, dst)
}

// AddOuter performs the rank-1 update m += a * bᵀ, where a has length m.Rows
// and b has length m.Cols. Rows whose coefficient a[i] is zero are skipped.
func (m *Dense) AddOuter(a, b Vec) {
	if len(a) != m.Rows || len(b) != m.Cols {
		panic(fmt.Sprintf("mat: AddOuter shape mismatch m=%dx%d len(a)=%d len(b)=%d",
			m.Rows, m.Cols, len(a), len(b)))
	}
	for i := 0; i < m.Rows; i++ {
		addScaled(m.Data[i*m.Cols:(i+1)*m.Cols], a[i], b)
	}
}
