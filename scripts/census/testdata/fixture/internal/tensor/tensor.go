// Package tensor is the census fixture's destination-passing case.
package tensor

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zero rows x cols matrix.
func New(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// MatMulInto sets dst = m · b and returns dst.
func (m *Matrix) MatMulInto(b, dst *Matrix) *Matrix {
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < m.Cols; k++ {
				s += m.Data[i*m.Cols+k] * b.Data[k*b.Cols+j]
			}
			dst.Data[i*dst.Cols+j] = s
		}
	}
	return dst
}

// Kept is unreached and on the allow-list.
func Kept() {}
