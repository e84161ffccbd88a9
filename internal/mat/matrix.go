package mat

import "fmt"

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols)) //lint:allow nopanic programmer-error guard: dimensions are compile-time constants in callers
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores x at row i, column j.
func (m *Matrix) Set(i, j int, x float64) { m.Data[i*m.Cols+j] = x }

// Row returns row i as a Vector sharing m's backing store.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Zero sets every element of m to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Scale multiplies every element of m by a.
func (m *Matrix) Scale(a float64) {
	for i := range m.Data {
		m.Data[i] *= a
	}
}

// Add accumulates o into m element-wise. Shapes must match.
func (m *Matrix) Add(o *Matrix) {
	m.checkSameShape(o)
	for i, x := range o.Data {
		m.Data[i] += x
	}
}

// AddScaled accumulates a*o into m element-wise. Shapes must match.
func (m *Matrix) AddScaled(a float64, o *Matrix) {
	m.checkSameShape(o)
	for i, x := range o.Data {
		m.Data[i] += a * x
	}
}

// MulVec computes dst = m·v, where v has length m.Cols and dst has length
// m.Rows. dst must not alias v. It returns dst.
func (m *Matrix) MulVec(dst, v Vector) Vector {
	checkLen(len(v), m.Cols)
	checkLen(len(dst), m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, x := range row {
			s += x * v[j]
		}
		dst[i] = s
	}
	return dst
}

// MulVecT computes dst = mᵀ·v, where v has length m.Rows and dst has length
// m.Cols. dst must not alias v. It returns dst.
func (m *Matrix) MulVecT(dst, v Vector) Vector {
	checkLen(len(v), m.Rows)
	checkLen(len(dst), m.Cols)
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		a := v[i]
		if a == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range row {
			dst[j] += a * x
		}
	}
	return dst
}

// AddOuter accumulates the outer product a·u·vᵀ into m, where u has length
// m.Rows and v has length m.Cols.
func (m *Matrix) AddOuter(a float64, u, v Vector) {
	checkLen(len(u), m.Rows)
	checkLen(len(v), m.Cols)
	for i, ui := range u {
		if ui == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		c := a * ui
		for j, vj := range v {
			row[j] += c * vj
		}
	}
}

func (m *Matrix) checkSameShape(o *Matrix) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("mat: shape mismatch %dx%d != %dx%d", m.Rows, m.Cols, o.Rows, o.Cols)) //lint:allow nopanic shape invariant: linear-algebra misuse, not a data error
	}
}
