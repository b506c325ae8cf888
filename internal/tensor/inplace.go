package tensor

import (
	"fmt"
	"math"
)

// This file holds the destination-passing ("Into") kernels: the one loop per
// elementwise, broadcast, reduction and softmax operation. The allocating
// methods of the same name in tensor.go call them on a fresh matrix, so the
// pooled autograd tape, the nn inference fast path and the allocating API
// cannot drift apart.
//
// Unless documented otherwise, dst may alias the receiver or the operand:
// every kernel below either reads src[i] strictly before writing dst[i], or
// explicitly rejects aliasing (the matmul family, which accumulates).

// assertShape panics unless m is rows x cols.
func (m *Matrix) assertShape(rows, cols int, op string) {
	if m.Rows != rows || m.Cols != cols {
		panic(fmt.Sprintf("tensor: %s wants dst %dx%d, got %dx%d", op, rows, cols, m.Rows, m.Cols))
	}
}

// aliases reports whether a and b share backing storage.
func aliases(a, b *Matrix) bool {
	return len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0]
}

// AddInto sets dst = m + b elementwise and returns dst.
func (m *Matrix) AddInto(b, dst *Matrix) *Matrix {
	m.assertSameShape(b, "AddInto")
	dst.assertShape(m.Rows, m.Cols, "AddInto")
	for i, v := range m.Data {
		dst.Data[i] = v + b.Data[i]
	}
	return dst
}

// SubInto sets dst = m - b elementwise and returns dst.
func (m *Matrix) SubInto(b, dst *Matrix) *Matrix {
	m.assertSameShape(b, "SubInto")
	dst.assertShape(m.Rows, m.Cols, "SubInto")
	for i, v := range m.Data {
		dst.Data[i] = v - b.Data[i]
	}
	return dst
}

// MulElemInto sets dst = m ∘ b elementwise and returns dst.
func (m *Matrix) MulElemInto(b, dst *Matrix) *Matrix {
	m.assertSameShape(b, "MulElemInto")
	dst.assertShape(m.Rows, m.Cols, "MulElemInto")
	for i, v := range m.Data {
		dst.Data[i] = v * b.Data[i]
	}
	return dst
}

// AddTanhGradInPlace accumulates m += grad ∘ (1 − y∘y) and returns m — the
// fused tanh backward. Per element the float op order is mul(y,y), sub(1,·),
// mul(grad,·), add: exactly the ApplyInto + MulElemInto + AddInPlace sequence
// it replaces, so the fusion is bitwise invisible.
func (m *Matrix) AddTanhGradInPlace(grad, y *Matrix) *Matrix {
	m.assertSameShape(grad, "AddTanhGradInPlace")
	m.assertSameShape(y, "AddTanhGradInPlace")
	i := 0
	if simdEnabled {
		if n8 := len(m.Data) &^ 7; n8 > 0 {
			tanhGradCols(&m.Data[0], &grad.Data[0], &y.Data[0], n8)
			i = n8
		}
	}
	for ; i < len(m.Data); i++ {
		t := 1 - y.Data[i]*y.Data[i]
		m.Data[i] += grad.Data[i] * t
	}
	return m
}

// DivElemInto sets dst = m / b elementwise and returns dst.
func (m *Matrix) DivElemInto(b, dst *Matrix) *Matrix {
	m.assertSameShape(b, "DivElemInto")
	dst.assertShape(m.Rows, m.Cols, "DivElemInto")
	for i, v := range m.Data {
		dst.Data[i] = v / b.Data[i]
	}
	return dst
}

// ScaleInto sets dst = s*m and returns dst.
func (m *Matrix) ScaleInto(s float64, dst *Matrix) *Matrix {
	dst.assertShape(m.Rows, m.Cols, "ScaleInto")
	for i, v := range m.Data {
		dst.Data[i] = s * v
	}
	return dst
}

// ApplyInto sets dst = f(m) elementwise and returns dst.
func (m *Matrix) ApplyInto(f func(float64) float64, dst *Matrix) *Matrix {
	dst.assertShape(m.Rows, m.Cols, "ApplyInto")
	for i, v := range m.Data {
		dst.Data[i] = f(v)
	}
	return dst
}

// TanhInto sets dst = tanh(m) elementwise and returns dst; dst may be m.
// Bitwise identical to ApplyInto(math.Tanh, dst) on every input.
func (m *Matrix) TanhInto(dst *Matrix) *Matrix {
	dst.assertShape(m.Rows, m.Cols, "TanhInto")
	if simdEnabled && len(m.Data) > 0 {
		tanhCols(&dst.Data[0], &m.Data[0], len(m.Data))
		return dst
	}
	return m.ApplyInto(math.Tanh, dst)
}

// AddRowBroadcastInto sets dst = m with the 1 x Cols row vector b added to
// each row, and returns dst.
func (m *Matrix) AddRowBroadcastInto(b, dst *Matrix) *Matrix {
	if b.Rows != 1 || b.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowBroadcastInto wants 1x%d, got %dx%d", m.Cols, b.Rows, b.Cols))
	}
	dst.assertShape(m.Rows, m.Cols, "AddRowBroadcastInto")
	for i := 0; i < m.Rows; i++ {
		src := m.Data[i*m.Cols : (i+1)*m.Cols]
		out := dst.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range src {
			out[j] = v + b.Data[j]
		}
	}
	return dst
}

// SumRowsInto sets the Rows x 1 dst to per-row sums of m and returns dst.
func (m *Matrix) SumRowsInto(dst *Matrix) *Matrix {
	dst.assertShape(m.Rows, 1, "SumRowsInto")
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		for _, v := range m.Row(i) {
			s += v
		}
		dst.Data[i] = s
	}
	return dst
}

// SumColsInto sets the 1 x Cols dst to per-column sums of m and returns dst.
// Each sum starts at +0 and adds the rows in order; the SIMD path adds a
// whole row per step, which is the same sequence per column. dst must not
// alias m.
func (m *Matrix) SumColsInto(dst *Matrix) *Matrix {
	dst.assertShape(1, m.Cols, "SumColsInto")
	if aliases(m, dst) {
		panic("tensor: SumColsInto dst aliases m")
	}
	dst.Zero()
	for i := 0; i < m.Rows; i++ {
		addVec(dst.Data, m.Row(i))
	}
	return dst
}

// SoftmaxRowsInto writes the row-wise softmax of m into dst (which may alias
// m) and returns dst.
func (m *Matrix) SoftmaxRowsInto(dst *Matrix) *Matrix {
	dst.assertShape(m.Rows, m.Cols, "SoftmaxRowsInto")
	for i := 0; i < m.Rows; i++ {
		softmaxRow(m.Row(i), dst.Row(i), nil)
	}
	return dst
}

// LogSoftmaxRowsInto writes the row-wise log-softmax of m into dst (which
// may alias m) and returns dst.
func (m *Matrix) LogSoftmaxRowsInto(dst *Matrix) *Matrix {
	dst.assertShape(m.Rows, m.Cols, "LogSoftmaxRowsInto")
	for i := 0; i < m.Rows; i++ {
		softmaxRow(m.Row(i), nil, dst.Row(i))
	}
	return dst
}

// SoftmaxPairInto writes the row-wise softmax of m into probs and its
// log-softmax into logp in one pass over each row: the bits of
// SoftmaxRowsInto and LogSoftmaxRowsInto, each exp computed once. Neither
// output may alias m or the other.
func (m *Matrix) SoftmaxPairInto(probs, logp *Matrix) {
	probs.assertShape(m.Rows, m.Cols, "SoftmaxPairInto")
	logp.assertShape(m.Rows, m.Cols, "SoftmaxPairInto")
	if aliases(probs, m) || aliases(logp, m) || aliases(probs, logp) {
		panic("tensor: SoftmaxPairInto outputs alias an operand")
	}
	for i := 0; i < m.Rows; i++ {
		softmaxRow(m.Row(i), probs.Row(i), logp.Row(i))
	}
}

// softmaxRow is the one softmax body: it writes src's softmax into probs and
// its log-softmax into logp, skipping a nil output. Both share the row max
// mx, the terms e = exp(v−mx) and their sum, added in column order; a
// probability is e·(1/sum) and a log-probability v − (mx + log sum). An
// output may alias src only when the other is nil: the log-probabilities
// read src after the terms are written.
func softmaxRow(src, probs, logp []float64) {
	mx := src[0]
	for _, v := range src[1:] {
		if v > mx {
			mx = v
		}
	}
	sum := 0.0
	for j, v := range src {
		e := math.Exp(v - mx)
		if probs != nil {
			probs[j] = e
		}
		sum += e
	}
	if logp != nil {
		lse := mx + math.Log(sum)
		for j, v := range src {
			logp[j] = v - lse
		}
	}
	if probs != nil {
		inv := 1.0 / sum
		for j := range probs {
			probs[j] *= inv
		}
	}
}
