package tensor

import (
	"fmt"
	"math"
)

// The products run serially on the calling goroutine: the cores are already
// taken one level up, by the actor/critic update overlap and the client
// goroutines (DESIGN §8 has the measurements).

// MatMul returns the matrix product m · b.
// It panics if m.Cols != b.Rows.
func (m *Matrix) MatMul(b *Matrix) *Matrix {
	return m.MatMulInto(b, New(m.Rows, b.Cols))
}

// MatMulInto computes dst = m · b and returns dst. dst's contents are never
// read, it must have shape m.Rows x b.Cols, and must not alias m or b.
func (m *Matrix) MatMulInto(b, dst *Matrix) *Matrix {
	m.checkMatMul(b, dst, "MatMulInto")
	if simdEnabled && len(dst.Data) > 0 && m.Cols > 0 {
		productSIMD(dst, b, matRows(m), false, 0, true, false, nil)
	} else {
		dst.Zero()
		matmulScalar(dst, matRows(m), b)
	}
	return dst
}

// MatMulBiasInto computes dst = m · b + bias, bias a 1 x b.Cols row added to
// every row, and returns dst: the dense layer's forward in one pass. Each
// element is the product's sum plus its bias, rounded once, exactly as
// MatMulInto followed by AddRowBroadcastInto (the scalar path does just
// that); the SIMD kernel adds the bias in registers before the one store.
// dst's contents are never read, it must have shape m.Rows x b.Cols, and
// must not alias m, b or bias.
func (m *Matrix) MatMulBiasInto(b, bias, dst *Matrix) *Matrix {
	m.checkMatMul(b, dst, "MatMulBiasInto")
	if bias.Rows != 1 || bias.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulBiasInto wants a 1x%d bias, got %dx%d", b.Cols, bias.Rows, bias.Cols))
	}
	if aliases(dst, bias) {
		panic("tensor: MatMulBiasInto dst aliases an operand")
	}
	matmulBias(dst, matRows(m), b, bias)
	return dst
}

// MatMulBiasRowsInto is MatMulBiasInto for a left operand held as a list of
// rows: dst = X·b + bias, where row i of X is rows[i][:b.Rows]. Each row is
// read where it lies — a trajectory buffer's states through a minibatch's
// shuffle, say — so nothing is staged, and the result is the bits of
// MatMulBiasInto over a matrix holding a copy of those rows: every output
// element sees the same scalars in the same order. dst must have shape
// len(rows) x b.Cols and hold none of the rows.
func MatMulBiasRowsInto(rows [][]float64, b, bias, dst *Matrix) *Matrix {
	x := listRows(rows, b.Rows, "MatMulBiasRowsInto")
	dst.assertShape(len(rows), b.Cols, "MatMulBiasRowsInto")
	if bias.Rows != 1 || bias.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulBiasRowsInto wants a 1x%d bias, got %dx%d", b.Cols, bias.Rows, bias.Cols))
	}
	if aliases(dst, b) || aliases(dst, bias) {
		panic("tensor: MatMulBiasRowsInto dst aliases an operand")
	}
	matmulBias(dst, x, b, bias)
	return dst
}

// matmulBias writes x·b + bias into dst: on the SIMD path in one pass, on
// the scalar path as the product followed by AddRowBroadcastInto.
func matmulBias(dst *Matrix, x rowsOf, b, bias *Matrix) {
	if simdEnabled && len(dst.Data) > 0 && x.cols > 0 {
		productSIMD(dst, b, x, false, 0, true, false, bias)
		return
	}
	dst.Zero()
	matmulScalar(dst, x, b)
	dst.AddRowBroadcastInto(bias, dst)
}

// rowsOf is a product's left operand read row by row: the rows of a
// contiguous matrix, or a list of rows each at least cols long (only the
// first cols elements are read).
type rowsOf struct {
	m    *Matrix
	list [][]float64
	cols int
}

// matRows is the row view of m.
func matRows(m *Matrix) rowsOf { return rowsOf{m: m, cols: m.Cols} }

// listRows is the row view of a row list of cols columns; a row shorter
// than that panics, as the kernels read through the list unchecked.
func listRows(list [][]float64, cols int, op string) rowsOf {
	for i, r := range list {
		if len(r) < cols {
			panic(fmt.Sprintf("tensor: %s row %d has %d elements, want at least %d", op, i, len(r), cols))
		}
	}
	return rowsOf{list: list, cols: cols}
}

// len returns the number of rows.
func (x rowsOf) len() int {
	if x.list != nil {
		return len(x.list)
	}
	return x.m.Rows
}

// row returns row i.
func (x rowsOf) row(i int) []float64 {
	if x.list != nil {
		return x.list[i][:x.cols]
	}
	return x.m.Data[i*x.cols : (i+1)*x.cols]
}

func (m *Matrix) checkMatMul(b, dst *Matrix, op string) {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d · %dx%d", op, m.Rows, m.Cols, b.Rows, b.Cols))
	}
	dst.assertShape(m.Rows, b.Cols, op)
	if aliases(dst, m) || aliases(dst, b) {
		panic("tensor: " + op + " dst aliases an operand")
	}
}

// matmulKBlock is the k-panel height of the cache-blocked SIMD kernel: 64
// rows of b at the repo's typical ≤64 hidden columns is ≤32 KiB, so a panel
// stays L1-resident while every output row streams over it. Panels are
// visited in ascending k order, so each output element still accumulates in
// exactly the order of the unblocked scalar kernel.
const matmulKBlock = 64

// matmulScalar accumulates out += x·b using an ikj loop order so the inner
// loop walks both b and out contiguously.
func matmulScalar(out *Matrix, x rowsOf, b *Matrix) {
	p := b.Cols
	for i := 0; i < x.len(); i++ {
		mrow := x.row(i)
		orow := out.Data[i*p : (i+1)*p]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			brow := b.Data[k*p : (k+1)*p]
			for j, bv := range brow {
				orow[j] += mv * bv
			}
		}
	}
}

// productSIMD is the cache-blocked AVX-512 kernel behind every product:
// out[r,:] (+)= Σ_t s(r,t) · b[t,:] with t ascending, every column of every
// output row going through axpyRows, bitwise identical to the scalar inner
// loops. The scalars come from x: s(r,t) = x[r][t] (MatMul), or with transA
// s(r,t) = x[t][lo+r] (MatMulTransA, rows lo… of the transposed product).
// A matrix is walked by strides (rows: 1, x.cols; columns: x.cols, 1), a
// row list through the list, one listed row per output row or per k.
// skipZeros selects the scalar kernels' zero-scalar guard; MatMulTransB
// turns it off. With accumulate the sums start from out's values; without,
// the first k panel starts them at +0 in registers and out is only written.
// A non-nil bias is added after the last k panel, before its store.
// Requires a non-empty out and b.
func productSIMD(out, b *Matrix, x rowsOf, transA bool, lo int, skipZeros, accumulate bool, bias *Matrix) {
	p, n := b.Cols, x.cols
	for k0 := 0; k0 < b.Rows; k0 += matmulKBlock {
		kn := min(b.Rows-k0, matmulKBlock)
		var biasRow *float64
		if bias != nil && k0+kn == b.Rows {
			biasRow = &bias.Data[0]
		}
		dst, bp, acc := &out.Data[0], &b.Data[k0*p], accumulate || k0 > 0
		switch {
		case x.list == nil && transA:
			axpyRows(dst, bp, &x.m.Data[k0*n+lo], biasRow, kn, p, out.Rows, p, n, p, 1, nil, nil, 0, skipZeros, acc)
		case x.list == nil:
			axpyRows(dst, bp, &x.m.Data[k0], biasRow, kn, p, out.Rows, p, 1, p, n, nil, nil, 0, skipZeros, acc)
		case transA:
			axpyRows(dst, bp, nil, biasRow, kn, p, out.Rows, p, 0, p, 1, nil, &x.list[k0], lo, skipZeros, acc)
		default:
			axpyRows(dst, bp, nil, biasRow, kn, p, out.Rows, p, 1, p, 0, &x.list[0], nil, k0, skipZeros, acc)
		}
	}
}

// MatMulTransB returns m · bᵀ without materializing the transpose.
func (m *Matrix) MatMulTransB(b *Matrix) *Matrix {
	return m.MatMulTransBInto(b, New(m.Rows, b.Rows))
}

// MatMulTransBInto computes dst = m · bᵀ and returns dst. dst's contents are
// never read, it must have shape m.Rows x b.Rows and must not alias m or b.
func (m *Matrix) MatMulTransBInto(b, dst *Matrix) *Matrix {
	if m.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransB shape mismatch %dx%d · (%dx%d)ᵀ", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	dst.assertShape(m.Rows, b.Rows, "MatMulTransBInto")
	if aliases(dst, m) || aliases(dst, b) {
		panic("tensor: MatMulTransBInto dst aliases an operand")
	}
	if simdEnabled && len(dst.Data) > 0 && m.Cols > 0 {
		matmulTransBSIMD(dst, m, b)
	} else {
		matmulTransBScalar(dst, m, b)
	}
	return dst
}

// matmulTransBScalar computes out = m·bᵀ: each output row is a set of dot
// products between one row of m and every row of b. A dot product starts
// from +0 and adds every term, zero or not.
func matmulTransBScalar(out, m, b *Matrix) {
	n := m.Cols
	for i := 0; i < m.Rows; i++ {
		mrow := m.Data[i*n : (i+1)*n]
		orow := out.Data[i*b.Rows : (i+1)*b.Rows]
		for j := 0; j < b.Rows; j++ {
			brow := b.Data[j*n : (j+1)*n]
			s := 0.0
			for k, mv := range mrow {
				s += mv * brow[k]
			}
			orow[j] = s
		}
	}
}

// matmulTransBSIMD vectorises matmulTransBScalar across output columns:
// with b transposed into pooled scratch, m·bᵀ is the ikj product over bᵀ, and
// sums started at +0 without the zero-scalar guard are, per element, the
// scalar dot product's `s = 0; s += m[i,k]*b[j,k]` in k order. Requires a
// non-empty out and m.Cols > 0.
func matmulTransBSIMD(out, m, b *Matrix) {
	bt := defaultPool.GetUninit(b.Cols, b.Rows)
	for j := 0; j < b.Rows; j++ {
		for k, v := range b.Data[j*b.Cols : (j+1)*b.Cols] {
			bt.Data[k*b.Rows+j] = v
		}
	}
	productSIMD(out, bt, matRows(m), false, 0, false, false, nil)
	defaultPool.Put(bt)
}

// MatMulTransA returns mᵀ · b without materializing the transpose.
func (m *Matrix) MatMulTransA(b *Matrix) *Matrix {
	return m.MatMulTransAInto(b, New(m.Cols, b.Cols))
}

// MatMulTransAInto computes dst = mᵀ · b and returns dst. dst's contents are
// never read, it must have shape m.Cols x b.Cols, and must not alias m or b.
func (m *Matrix) MatMulTransAInto(b, dst *Matrix) *Matrix {
	checkTransA(m, b, dst, "MatMulTransAInto")
	productTransA(dst, matRows(m), b, false)
	return dst
}

// MatMulTransATiedInto computes dst = Xᵀ·b for X held as a list of rows,
// row t of X being rows[t][:dst.Rows] — the weight gradient of a first
// layer fed by MatMulBiasRowsInto — where X's columns repeat: ties lists,
// ascending, each column i ≥ 1 that holds the bits of column i−1 in every
// listed row, and the caller vouches for it (NarrowTies builds such a
// list). Each k reads its scalars from its own listed row, so the result is
// MatMulTransAInto's over a staged copy of the rows, bit for bit. Output
// row i of Xᵀ·b reads only column i of X and b, so a tied column's row has
// its left neighbour's bits: the kernel computes the rows between ties, one
// productSIMD per untied stretch, and copies each tied row from the row
// above, in ascending order so a run copies down. An empty list computes
// every row; so does the scalar path. X has dst.Rows columns and b.Rows
// rows; dst, dst.Rows x b.Cols, must hold none of the rows.
func MatMulTransATiedInto(rows [][]float64, b, dst *Matrix, ties []int) *Matrix {
	x := listRows(rows, dst.Rows, "MatMulTransATiedInto")
	if len(rows) != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransATiedInto shape mismatch (%dx%d)ᵀ · %dx%d", len(rows), x.cols, b.Rows, b.Cols))
	}
	dst.assertShape(x.cols, b.Cols, "MatMulTransATiedInto")
	if aliases(dst, b) {
		panic("tensor: MatMulTransATiedInto dst aliases an operand")
	}
	prev := 0
	for _, c := range ties {
		if c <= prev || c >= x.cols {
			panic(fmt.Sprintf("tensor: MatMulTransATiedInto tie %d out of order or outside [1,%d)", c, x.cols))
		}
		prev = c
	}
	if len(ties) == 0 || !simdEnabled || len(dst.Data) == 0 || len(rows) == 0 {
		productTransA(dst, x, b, false)
		return dst
	}
	lo := 0
	for _, c := range ties {
		if c > lo {
			transARows(dst, x, b, lo, c)
		}
		lo = c + 1
	}
	if lo < x.cols {
		transARows(dst, x, b, lo, x.cols)
	}
	p := b.Cols
	for _, c := range ties {
		copy(dst.Data[c*p:(c+1)*p], dst.Data[(c-1)*p:c*p])
	}
	return dst
}

// transARows writes rows [lo,hi) of Xᵀ·b into out: productTransA's SIMD
// call on a view of those rows, reading columns lo… of X.
func transARows(out *Matrix, x rowsOf, b *Matrix, lo, hi int) {
	p := b.Cols
	seg := Matrix{Rows: hi - lo, Cols: p, Data: out.Data[lo*p : hi*p]}
	productSIMD(&seg, b, x, true, lo, true, false, nil)
}

// NarrowTies keeps the entries i of ties at which row[i] has the bits of
// row[i-1] and returns the shortened list, written over ties. Starting from
// every column 1 … n−1 and narrowing by each row of a matrix leaves the
// list MatMulTransATiedInto takes. Bits, not ==: +0 and −0 differ, and a
// NaN matches only a NaN with its payload.
func NarrowTies(ties []int, row []float64) []int {
	kept := ties[:0]
	for _, i := range ties {
		if math.Float64bits(row[i]) == math.Float64bits(row[i-1]) {
			kept = append(kept, i)
		}
	}
	return kept
}

// AddMatMulTransAInPlace accumulates m += aᵀ · b and returns m: the
// accumulating form of MatMulTransAInto, with the same shape and alias rules
// (m is the destination). Accumulating the row panels of a and b in
// ascending order adds every output element's terms in exactly the order of
// one MatMulTransAInto (or MatMulInto on aᵀ) over the whole operands, so a
// caller can stream b a panel at a time and keep the bits.
func (m *Matrix) AddMatMulTransAInPlace(a, b *Matrix) *Matrix {
	checkTransA(a, b, m, "AddMatMulTransAInPlace")
	productTransA(m, matRows(a), b, true)
	return m
}

func checkTransA(m, b, dst *Matrix, op string) {
	if m.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: %s shape mismatch (%dx%d)ᵀ · %dx%d", op, m.Rows, m.Cols, b.Rows, b.Cols))
	}
	dst.assertShape(m.Cols, b.Cols, op)
	if aliases(dst, m) || aliases(dst, b) {
		panic("tensor: " + op + " dst aliases an operand")
	}
}

// productTransA writes xᵀ·b into out, or adds it to out with accumulate.
func productTransA(out *Matrix, x rowsOf, b *Matrix, accumulate bool) {
	if simdEnabled && len(out.Data) > 0 && x.len() > 0 {
		// Output row i reads column i of x, one scalar per row of x: a
		// strided or listed scalar stream the out-of-order core hides well.
		productSIMD(out, b, x, true, 0, true, accumulate, nil)
		return
	}
	if !accumulate {
		out.Zero()
	}
	matmulTransAScalar(out, x, b)
}

// matmulTransAScalar accumulates out += xᵀ·b with the k loop outermost, so
// every output element accumulates over ascending k.
func matmulTransAScalar(out *Matrix, x rowsOf, b *Matrix) {
	for k := 0; k < x.len(); k++ {
		mrow := x.row(k)
		brow := b.Data[k*b.Cols : (k+1)*b.Cols]
		for i, mv := range mrow {
			if mv == 0 {
				continue
			}
			orow := out.Data[i*b.Cols : (i+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += mv * bv
			}
		}
	}
}
