// Package tensor provides a dense, row-major float64 matrix type and the
// linear-algebra kernels used by the autograd engine and neural networks in
// this repository. It is deliberately small: two-dimensional matrices only,
// explicit shapes, and no hidden allocation in the hot paths that accept a
// destination.
//
// Vectors are represented as matrices with one row (row vector) or one
// column (column vector); helper constructors are provided for both.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix of float64 values.
//
// The zero value is an empty 0x0 matrix. All operations that return a new
// Matrix allocate exactly one backing slice. Methods never retain references
// to argument matrices.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New returns a zero-initialized matrix with the given shape.
// It panics if rows or cols is negative.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice returns a rows x cols matrix that copies the provided data.
// It panics if len(data) != rows*cols.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d values for %dx%d", len(data), rows, cols))
	}
	m := New(rows, cols)
	copy(m.Data, data)
	return m
}

// FromRows builds a matrix from a slice of equal-length rows.
// It panics if the rows have differing lengths.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("tensor: FromRows row %d has %d cols, want %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// RowVector returns a 1 x n matrix copying v.
func RowVector(v []float64) *Matrix { return FromSlice(1, len(v), v) }

// ColVector returns an n x 1 matrix copying v.
func ColVector(v []float64) *Matrix { return FromSlice(len(v), 1, v) }

// Full returns a rows x cols matrix with every element set to v.
func Full(rows, cols int, v float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = v
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.boundsCheck(i, j)
	return m.Data[i*m.Cols+j]
}

// Set stores v at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Matrix) boundsCheck(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("tensor: index (%d,%d) out of range for %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Row returns row i as a slice aliasing the matrix storage.
// Mutating the returned slice mutates the matrix.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("tensor: row %d out of range for %dx%d", i, m.Rows, m.Cols))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies src into m. The shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	m.assertSameShape(src, "CopyFrom")
	copy(m.Data, src.Data)
}

// Zero sets every element of m to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element of m to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// AllPositiveZero reports whether every element of m has the bits of +0 —
// what Zero leaves; a -0 does not count.
func (m *Matrix) AllPositiveZero() bool {
	d := m.Data
	if simdEnabled {
		if n8 := len(d) &^ 7; n8 > 0 {
			if !vecAllZero(&d[0], n8) {
				return false
			}
			d = d[n8:]
		}
	}
	for _, v := range d {
		if math.Float64bits(v) != 0 {
			return false
		}
	}
	return true
}

// SameShape reports whether m and b have identical dimensions.
func (m *Matrix) SameShape(b *Matrix) bool { return m.Rows == b.Rows && m.Cols == b.Cols }

func (m *Matrix) assertSameShape(b *Matrix, op string) {
	if !m.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, b.Rows, b.Cols))
	}
}

// Add returns m + b elementwise.
func (m *Matrix) Add(b *Matrix) *Matrix { return m.AddInto(b, New(m.Rows, m.Cols)) }

// AddInPlace sets m = m + b and returns m.
func (m *Matrix) AddInPlace(b *Matrix) *Matrix {
	m.assertSameShape(b, "AddInPlace")
	addVec(m.Data, b.Data)
	return m
}

// addVec sets dst[i] += src[i] for every i < len(dst), through vecAdd on
// the longest multiple-of-8 prefix when SIMD is on.
func addVec(dst, src []float64) {
	i := 0
	if simdEnabled {
		if n8 := len(dst) &^ 7; n8 > 0 {
			vecAdd(&dst[0], &src[0], n8)
			i = n8
		}
	}
	for ; i < len(dst); i++ {
		dst[i] += src[i]
	}
}

// AddScaledInPlace sets m = m + s*b and returns m.
func (m *Matrix) AddScaledInPlace(b *Matrix, s float64) *Matrix {
	m.assertSameShape(b, "AddScaledInPlace")
	if simdEnabled && len(m.Data) > 0 {
		// Zero scalars are kept: the scalar loop's `x += 0*v` can flip a
		// -0.0 element to +0.0 and turns an infinite v into NaN.
		axpyRows(&m.Data[0], &b.Data[0], &s, nil, 1, len(m.Data), 1, 0, 0, 0, 0, false, true)
		return m
	}
	for i, v := range b.Data {
		m.Data[i] += s * v
	}
	return m
}

// SetScaled sets m = +0 + s*b elementwise and returns m: bit for bit what
// Zero followed by AddScaledInPlace(b, s) leaves (the +0 turns a -0 product
// into +0), in one pass that never reads m. With s = 1 it is the bits
// AddInPlace(b) leaves on a zeroed m. m must not alias b.
func (m *Matrix) SetScaled(b *Matrix, s float64) *Matrix {
	m.assertSameShape(b, "SetScaled")
	if simdEnabled && len(m.Data) > 0 {
		axpyRows(&m.Data[0], &b.Data[0], &s, nil, 1, len(m.Data), 1, 0, 0, 0, 0, false, false)
		return m
	}
	for i, v := range b.Data {
		m.Data[i] = 0 + s*v
	}
	return m
}

// Sub returns m - b elementwise.
func (m *Matrix) Sub(b *Matrix) *Matrix { return m.SubInto(b, New(m.Rows, m.Cols)) }

// Scale returns s*m.
func (m *Matrix) Scale(s float64) *Matrix { return m.ScaleInto(s, New(m.Rows, m.Cols)) }

// ScaleInPlace sets m = s*m and returns m. Each element is one multiply, so
// the SIMD prefix has the scalar loop's bits.
func (m *Matrix) ScaleInPlace(s float64) *Matrix {
	i := 0
	if simdEnabled {
		if n8 := len(m.Data) &^ 7; n8 > 0 {
			vecScale(&m.Data[0], s, n8)
			i = n8
		}
	}
	for ; i < len(m.Data); i++ {
		m.Data[i] *= s
	}
	return m
}

// Apply returns f applied elementwise to m.
func (m *Matrix) Apply(f func(float64) float64) *Matrix { return m.ApplyInto(f, New(m.Rows, m.Cols)) }

// T returns the transpose of m.
func (m *Matrix) T() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// Sum returns the sum of all elements.
func (m *Matrix) Sum() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for an empty matrix).
func (m *Matrix) Mean() float64 {
	if len(m.Data) == 0 {
		return 0
	}
	return m.Sum() / float64(len(m.Data))
}

// Max returns the maximum element. It panics on an empty matrix.
func (m *Matrix) Max() float64 {
	if len(m.Data) == 0 {
		panic("tensor: Max of empty matrix")
	}
	mx := m.Data[0]
	for _, v := range m.Data[1:] {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// Min returns the minimum element. It panics on an empty matrix.
func (m *Matrix) Min() float64 {
	if len(m.Data) == 0 {
		panic("tensor: Min of empty matrix")
	}
	mn := m.Data[0]
	for _, v := range m.Data[1:] {
		if v < mn {
			mn = v
		}
	}
	return mn
}

// SumRows returns a Rows x 1 column vector whose i-th entry is the sum of row i.
func (m *Matrix) SumRows() *Matrix { return m.SumRowsInto(New(m.Rows, 1)) }

// SumCols returns a 1 x Cols row vector whose j-th entry is the sum of column j.
func (m *Matrix) SumCols() *Matrix { return m.SumColsInto(New(1, m.Cols)) }

// Norm2 returns the Frobenius (L2) norm of m.
func (m *Matrix) Norm2() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// SoftmaxRows returns a matrix whose rows are the softmax of the rows of m,
// computed with the max-subtraction trick for numerical stability.
func (m *Matrix) SoftmaxRows() *Matrix { return m.SoftmaxRowsInto(New(m.Rows, m.Cols)) }

// LogSoftmaxRows returns log(softmax) per row, computed stably.
func (m *Matrix) LogSoftmaxRows() *Matrix { return m.LogSoftmaxRowsInto(New(m.Rows, m.Cols)) }

// ApproxEqual reports whether m and b have the same shape and all elements
// differ by at most tol.
func (m *Matrix) ApproxEqual(b *Matrix, tol float64) bool {
	if !m.SameShape(b) {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix(%dx%d)[", m.Rows, m.Cols)
	const maxShow = 8
	for i := 0; i < m.Rows && i < maxShow; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		row := m.Row(i)
		for j, v := range row {
			if j >= maxShow {
				b.WriteString(" …")
				break
			}
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", v)
		}
	}
	if m.Rows > maxShow {
		b.WriteString("; …")
	}
	b.WriteByte(']')
	return b.String()
}
