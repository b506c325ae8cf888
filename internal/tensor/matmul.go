package tensor

import (
	"fmt"
	"math"
)

// The products run serially on the calling goroutine: the cores are already
// taken one level up, by the actor/critic update overlap and the client
// goroutines (DESIGN §8 has the measurements).

// MatMulInto computes dst = m · b and returns dst. dst's contents are never
// read, it must have shape m.Rows x b.Cols, and must not alias m or b.
func (m *Matrix) MatMulInto(b, dst *Matrix) *Matrix {
	m.checkMatMul(b, dst, "MatMulInto")
	if simdEnabled && len(dst.Data) > 0 && m.Cols > 0 {
		productSIMD(dst, b, m.Data, 1, m.Cols, true, false, nil)
	} else {
		dst.Zero()
		matmulScalar(dst, m, b)
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
	if simdEnabled && len(dst.Data) > 0 && m.Cols > 0 {
		productSIMD(dst, b, m.Data, 1, m.Cols, true, false, bias)
	} else {
		dst.Zero()
		matmulScalar(dst, m, b)
		dst.AddRowBroadcastInto(bias, dst)
	}
	return dst
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

// matmulScalar accumulates out += m·b using an ikj loop order so the inner
// loop walks both b and out contiguously.
func matmulScalar(out, m, b *Matrix) {
	n, p := m.Cols, b.Cols
	for i := 0; i < m.Rows; i++ {
		mrow := m.Data[i*n : (i+1)*n]
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
// out[r,:] (+)= Σ_t s[r*sRowStride + t*sStride] · b[t,:] with t ascending,
// every column of every output row going through axpyRows, bitwise
// identical to the scalar inner loops. s is m.Data walked by rows (MatMul:
// strides 1, m.Cols) or by columns (MatMulTransA: m.Cols, 1). skipZeros
// selects the scalar kernels' zero-scalar guard; MatMulTransB turns it off.
// With accumulate the sums start from out's values; without, the first k
// panel starts them at +0 in registers and out is only written. A non-nil
// bias is added after the last k panel, before its store. Requires a
// non-empty out and b.
func productSIMD(out, b *Matrix, s []float64, sStride, sRowStride int, skipZeros, accumulate bool, bias *Matrix) {
	p := b.Cols
	for k0 := 0; k0 < b.Rows; k0 += matmulKBlock {
		kn := min(b.Rows-k0, matmulKBlock)
		var biasRow *float64
		if bias != nil && k0+kn == b.Rows {
			biasRow = &bias.Data[0]
		}
		axpyRows(&out.Data[0], &b.Data[k0*p], &s[k0*sStride], biasRow, kn, p, out.Rows, p, sStride, p, sRowStride, skipZeros, accumulate || k0 > 0)
	}
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
	productSIMD(out, bt, m.Data, 1, m.Cols, false, false, nil)
	defaultPool.Put(bt)
}

// MatMulTransAInto computes dst = mᵀ · b and returns dst. dst's contents are
// never read, it must have shape m.Cols x b.Cols, and must not alias m or b.
func (m *Matrix) MatMulTransAInto(b, dst *Matrix) *Matrix {
	checkTransA(m, b, dst, "MatMulTransAInto")
	productTransA(dst, m, b, false)
	return dst
}

// MatMulTransATiedInto is MatMulTransAInto for an m whose columns repeat:
// ties lists, ascending, each column i ≥ 1 that holds the bits of column
// i−1 in every row of m, and the caller vouches for it (NarrowTies builds
// such a list). Output row i of mᵀ·b reads only column i of m and b, so a
// tied column's row has its left neighbour's bits: the kernel computes the
// rows between ties, one productSIMD per untied stretch, and copies each
// tied row from the row above, in ascending order so a run copies down.
// The result is MatMulTransAInto's bit for bit; an empty list is that call.
// The scalar path computes every row.
func (m *Matrix) MatMulTransATiedInto(b, dst *Matrix, ties []int) *Matrix {
	checkTransA(m, b, dst, "MatMulTransATiedInto")
	prev := 0
	for _, c := range ties {
		if c <= prev || c >= m.Cols {
			panic(fmt.Sprintf("tensor: MatMulTransATiedInto tie %d out of order or outside [1,%d)", c, m.Cols))
		}
		prev = c
	}
	if len(ties) == 0 || !simdEnabled || len(dst.Data) == 0 || m.Rows == 0 {
		productTransA(dst, m, b, false)
		return dst
	}
	lo := 0
	for _, c := range ties {
		if c > lo {
			transARows(dst, m, b, lo, c)
		}
		lo = c + 1
	}
	if lo < m.Cols {
		transARows(dst, m, b, lo, m.Cols)
	}
	p := b.Cols
	for _, c := range ties {
		copy(dst.Data[c*p:(c+1)*p], dst.Data[(c-1)*p:c*p])
	}
	return dst
}

// transARows writes rows [lo,hi) of mᵀ·b into out: productTransA's SIMD
// call on a view of those rows and of the columns of m they read.
func transARows(out, m, b *Matrix, lo, hi int) {
	p := b.Cols
	seg := Matrix{Rows: hi - lo, Cols: p, Data: out.Data[lo*p : hi*p]}
	productSIMD(&seg, b, m.Data[lo:], m.Cols, 1, true, false, nil)
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
	productTransA(m, a, b, true)
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

// productTransA writes mᵀ·b into out, or adds it to out with accumulate.
func productTransA(out, m, b *Matrix, accumulate bool) {
	if simdEnabled && len(out.Data) > 0 && m.Rows > 0 {
		// Output row i reads column i of m with stride m.Cols, a strided
		// scalar stream the out-of-order core hides well.
		productSIMD(out, b, m.Data, m.Cols, 1, true, accumulate, nil)
		return
	}
	if !accumulate {
		out.Zero()
	}
	matmulTransAScalar(out, m, b)
}

// matmulTransAScalar accumulates out += mᵀ·b with the k loop outermost, so
// every output element accumulates over ascending k.
func matmulTransAScalar(out, m, b *Matrix) {
	for k := 0; k < m.Rows; k++ {
		mrow := m.Data[k*m.Cols : (k+1)*m.Cols]
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
