package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// bruteTies lists, by direct comparison, the columns c ≥ 1 of m whose bits
// equal column c−1's in every row: the list MatMulTransATiedInto takes.
func bruteTies(m *Matrix) []int {
	var ties []int
	for c := 1; c < m.Cols; c++ {
		tied := true
		for r := 0; r < m.Rows && tied; r++ {
			tied = math.Float64bits(m.At(r, c)) == math.Float64bits(m.At(r, c-1))
		}
		if tied {
			ties = append(ties, c)
		}
	}
	return ties
}

// narrowedTies is the list NarrowTies leaves from every column after each
// row of m.
func narrowedTies(m *Matrix) []int {
	ties := make([]int, 0, m.Cols)
	for c := 1; c < m.Cols; c++ {
		ties = append(ties, c)
	}
	for r := 0; r < m.Rows; r++ {
		ties = NarrowTies(ties, m.Row(r))
	}
	return ties
}

// plantRun makes columns lo+1 … hi−1 of m copies of column lo.
func plantRun(m *Matrix, lo, hi int) {
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c := lo + 1; c < hi; c++ {
			row[c] = row[lo]
		}
	}
}

// requireTiedMatchesPlain builds m's tie list with NarrowTies, checks it
// against bruteTies and want, and checks that MatMulTransATiedInto over it
// leaves MatMulTransAInto's bits, with SIMD on and off.
func requireTiedMatchesPlain(t *testing.T, label string, m, dh *Matrix, want []int) {
	t.Helper()
	ties := narrowedTies(m)
	if brute := bruteTies(m); !slices.Equal(ties, brute) {
		t.Fatalf("%s: NarrowTies kept %v, bit comparison finds %v", label, ties, brute)
	}
	if want != nil && !slices.Equal(ties, want) {
		t.Fatalf("%s: tie list %v, planted %v", label, ties, want)
	}
	for _, simd := range []bool{true, false} {
		prev := SetSIMD(simd)
		plain := m.MatMulTransAInto(dh, New(m.Cols, dh.Cols))
		tied := New(m.Cols, dh.Cols)
		tied.Fill(math.NaN()) // every element must be written
		m.MatMulTransATiedInto(dh, tied, ties)
		SetSIMD(prev)
		requireBitIdentical(t, fmt.Sprintf("%s simd=%v", label, simd), plain.Data, tied.Data)
	}
}

// TestMatMulTransATiedMatchesPlain pins the tied weight gradient: with the
// columns of X planted in runs — at column 1, in the middle, to the last
// column, over the whole matrix — the tie list holds exactly the planted
// columns and xᵀ·dH computed over it is the plain product bit for bit, at
// 1, 63, 64 and 65 rows and dH widths 1, 6, 8 and 64. Columns that differ
// only in the sign of a zero or in a NaN payload are not tied.
func TestMatMulTransATiedMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	const cols = 40
	otherNaN := math.Float64frombits(0x7FF8000000000001)
	every := make([]int, 0, cols)
	for c := 1; c < cols; c++ {
		every = append(every, c)
	}
	cases := []struct {
		name  string
		plant func(m *Matrix)
		want  []int
	}{
		{"none", func(*Matrix) {}, []int{}},
		{"first", func(m *Matrix) { plantRun(m, 0, 4) }, []int{1, 2, 3}},
		{"middle", func(m *Matrix) { plantRun(m, 11, 17); plantRun(m, 20, 22) }, []int{12, 13, 14, 15, 16, 21}},
		{"last", func(m *Matrix) { plantRun(m, cols-5, cols) }, []int{cols - 4, cols - 3, cols - 2, cols - 1}},
		{"whole", func(m *Matrix) { plantRun(m, 0, cols) }, every},
		{"void", func(m *Matrix) {
			for r := 0; r < m.Rows; r++ {
				for c := 30; c < cols; c++ {
					m.Set(r, c, -1)
				}
			}
		}, []int{31, 32, 33, 34, 35, 36, 37, 38, 39}},
		{"signed-zero", func(m *Matrix) {
			plantRun(m, 5, 8)
			m.Set(m.Rows-1, 5, 0)
			m.Set(m.Rows-1, 6, math.Copysign(0, -1))
			m.Set(m.Rows-1, 7, math.Copysign(0, -1))
		}, []int{7}},
		{"nan-payload", func(m *Matrix) {
			plantRun(m, 5, 8)
			m.Set(0, 5, x86DefaultNaN)
			m.Set(0, 6, otherNaN)
			m.Set(0, 7, otherNaN)
		}, []int{7}},
	}
	for _, rows := range []int{1, 63, 64, 65} {
		for _, width := range []int{1, 6, 8, 64} {
			for _, tc := range cases {
				m := New(rows, cols)
				fillMixed(rng, m.Data)
				plantSpecials(rng, m.Data)
				for c := range cols { // no accidental ties: row 0 differs column to column
					m.Data[c] = float64(c) + 0.5
				}
				tc.plant(m)
				dh := New(rows, width)
				fillMixed(rng, dh.Data)
				requireTiedMatchesPlain(t, fmt.Sprintf("%s %dx%d·%d", tc.name, rows, cols, width), m, dh, tc.want)
			}
		}
	}
}

// TestMatMulTransATiedRejectsBadLists pins the list's shape check: a tie
// list out of order, at column 0 or past the last column panics.
func TestMatMulTransATiedRejectsBadLists(t *testing.T) {
	m, dh := New(3, 5), New(3, 2)
	for _, ties := range [][]int{{0}, {2, 2}, {3, 1}, {5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ties %v: no panic", ties)
				}
			}()
			m.MatMulTransATiedInto(dh, New(5, 2), ties)
		}()
	}
}

// FuzzMatMulTransATied compares the tied product with the plain one on X up
// to 70 x 70 drawn from FuzzMatMulMatchesScalar's operand classes, with the
// columns whose bit is set in tie copied from their left neighbour, and
// checks NarrowTies' list against the bit comparison.
func FuzzMatMulTransATied(f *testing.F) {
	f.Add(uint8(63), uint8(39), uint8(63), []byte{0x81, 0x00, 0x06, 0x36, 0x80, 0x03}, []byte{0x0e, 0xf0, 0x00, 0xff, 0x81})
	f.Add(uint8(0), uint8(9), uint8(0), []byte{0x81}, []byte{0xff})
	f.Add(uint8(64), uint8(69), uint8(5), []byte{0x04, 0x00, 0x80, 0x01}, []byte{0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80})
	f.Fuzz(func(t *testing.T, r, c, w uint8, ops, tie []byte) {
		if len(ops) == 0 {
			return
		}
		rows, cols, width := 1+int(r)%70, 1+int(c)%70, 1+int(w)%70
		m, dh := New(rows, cols), New(rows, width)
		for i := range m.Data {
			m.Data[i] = fuzzOperand(ops[i%len(ops)])
		}
		for i := range dh.Data {
			dh.Data[i] = fuzzOperand(ops[len(ops)-1-i%len(ops)])
		}
		for col := 1; col < cols && col/8 < len(tie); col++ {
			if tie[col/8]>>(col%8)&1 != 0 {
				plantRun(m, col-1, col+1)
			}
		}
		requireTiedMatchesPlain(t, fmt.Sprintf("%dx%d·%d", rows, cols, width), m, dh, nil)
	})
}

// TestAdamTiedRowsMatchScalar pins AdamUpdateRows against the scalar Adam
// over the whole matrix, element by element — parameters, both moments and
// the cleared gradient — for 60 steps of gradients whose rows come in tied
// runs: runs that stay tied, a run pulled apart from step 20 by a term
// μ(p − ref) that differs per row (the writer a product row meets: a later
// Update whose tie list no longer holds the column), a Reset at step 35
// (zero moments, the step count restarted) that ties that run again,
// parameters of −0 under a +0 step (zero gradients while m is +0), and ±Inf
// and NaN gradients on their own runs late on; widths that are not a
// multiple of 8, and 1-row parameters; every third step's gradients are
// clipped (a scale below 1), the others not. Both SIMD settings.
func TestAdamTiedRowsMatchScalar(t *testing.T) {
	const lr, beta1, beta2, eps, mu = 3e-4, 0.9, 0.999, 1e-8, 0.1
	for _, simd := range []bool{true, false} {
		for _, shape := range [][2]int{{1, 1}, {1, 13}, {2, 8}, {12, 1}, {12, 5}, {12, 13}, {16, 64}, {24, 70}} {
			rows, cols := shape[0], shape[1]
			label := fmt.Sprintf("simd=%v %dx%d", simd, rows, cols)
			rng := rand.New(rand.NewSource(int64(17 + rows*cols)))
			n := rows * cols
			pR, mR, vR := make([]float64, n), make([]float64, n), make([]float64, n)
			fillMixed(rng, pR)
			for r := 1; r < rows; r += 4 { // −0 parameters in each run's second row
				pR[r*cols] = math.Copysign(0, -1)
			}
			ref := append([]float64(nil), pR...)
			for i := range ref {
				ref[i] += 0.25 * rng.NormFloat64()
			}
			pT, mT, vT := append([]float64(nil), pR...), make([]float64, n), make([]float64, n)
			step := make([]float64, cols)
			g := make([]float64, n)
			t0, tiedRows := 0, 0
			for it := 1; it <= 60; it++ {
				if it == 35 { // Adam.Reset
					clear(mR)
					clear(vR)
					clear(mT)
					clear(vT)
					t0 = it - 1
				}
				// Runs of four rows: row r%4 != 0 repeats row r−1.
				for r := 0; r < rows; r++ {
					row := g[r*cols : (r+1)*cols]
					if r%4 != 0 {
						copy(row, g[(r-1)*cols:r*cols])
						continue
					}
					for j := range row {
						row[j] = rng.NormFloat64()
					}
					switch run := r / 4; {
					case run == 0 && it <= 3:
						clear(row) // m stays +0: a +0 step on the −0 parameters
					case run == 2 && it == 50:
						row[0], row[len(row)-1] = math.Inf(1), math.Inf(-1)
					case run == 3 && it == 52:
						row[len(row)/2] = x86DefaultNaN
					}
				}
				if it >= 20 { // a later Update whose tie list no longer holds the column
					for r := 4; r < min(8, rows); r++ {
						for j := 0; j < cols; j++ {
							g[r*cols+j] += mu * (pR[r*cols+j] - ref[r*cols+j])
						}
					}
				}
				for off := cols; off < n; off += cols {
					if rowTied(g, mT, vT, off, cols) {
						tiedRows++
					}
				}
				bc1 := 1 - math.Pow(beta1, float64(it-t0))
				bc2 := 1 - math.Pow(beta2, float64(it-t0))
				scale := 1.0
				if it%3 == 0 {
					scale = 0.5 / (1 + rng.Float64())
				}
				gR, gT := append([]float64(nil), g...), append([]float64(nil), g...)
				prev := SetSIMD(false)
				adamScalar(pR, gR, mR, vR, nil, lr, beta1, beta2, eps, bc1, bc2, scale)
				SetSIMD(simd)
				AdamUpdateRows(pT, gT, mT, vT, step, cols, lr, beta1, beta2, eps, bc1, bc2, scale)
				SetSIMD(prev)
				at := fmt.Sprintf("%s step %d", label, it)
				requireBitIdentical(t, at+" p", pR, pT)
				requireBitIdentical(t, at+" m", mR, mT)
				requireBitIdentical(t, at+" v", vR, vT)
				requireBitIdentical(t, at+" g", gR, gT)
			}
			if rows > 1 && tiedRows == 0 {
				t.Fatalf("%s: no row was tied; the test no longer reaches the tied path", label)
			}
		}
	}
}

// TestAdamScaleMatchesTwoPass pins the clip folded into Adam against the
// two passes it replaced: the gradient rescaled in place (ScaleInPlace, run
// only when the clip applies, as the clip did) and then stepped at scale 1.
// Parameters, both moments and the cleared gradient match bit for bit over
// 12 steps, on matrices with and without tied rows, at scales of 1, just
// below 1, tiny (subnormal products) and 0, with ±Inf and NaN gradients
// late on. Both SIMD settings.
func TestAdamScaleMatchesTwoPass(t *testing.T) {
	const lr, beta1, beta2, eps = 3e-4, 0.9, 0.999, 1e-8
	scales := []float64{1, math.Nextafter(1, 0), 0.37, 1e-310, 0}
	for _, simd := range []bool{true, false} {
		for _, shape := range [][2]int{{1, 13}, {6, 8}, {12, 70}, {64, 64}} {
			rows, cols := shape[0], shape[1]
			rng := rand.New(rand.NewSource(int64(31 + rows*cols)))
			n := rows * cols
			pA, mA, vA := make([]float64, n), make([]float64, n), make([]float64, n)
			fillMixed(rng, pA)
			pB, mB, vB := append([]float64(nil), pA...), make([]float64, n), make([]float64, n)
			step := make([]float64, cols)
			g := make([]float64, n)
			for it := 1; it <= 12; it++ {
				fillMixed(rng, g)
				for r := 1; r < rows; r += 2 { // odd rows tie to the row above
					copy(g[r*cols:(r+1)*cols], g[(r-1)*cols:r*cols])
				}
				if it == 11 {
					g[0], g[n-1], g[n/2] = math.Inf(1), math.Inf(-1), x86DefaultNaN
				}
				scale := scales[it%len(scales)]
				bc1 := 1 - math.Pow(beta1, float64(it))
				bc2 := 1 - math.Pow(beta2, float64(it))
				gA, gB := append([]float64(nil), g...), append([]float64(nil), g...)
				prev := SetSIMD(simd)
				AdamUpdateRows(pA, gA, mA, vA, step, cols, lr, beta1, beta2, eps, bc1, bc2, scale)
				if scale != 1 {
					(&Matrix{Rows: rows, Cols: cols, Data: gB}).ScaleInPlace(scale)
				}
				AdamUpdateRows(pB, gB, mB, vB, step, cols, lr, beta1, beta2, eps, bc1, bc2, 1)
				SetSIMD(prev)
				at := fmt.Sprintf("simd=%v %dx%d step %d scale %v", simd, rows, cols, it, scale)
				requireBitIdentical(t, at+" p", pB, pA)
				requireBitIdentical(t, at+" m", mB, mA)
				requireBitIdentical(t, at+" v", vB, vA)
				requireBitIdentical(t, at+" g", gB, gA)
			}
		}
	}
}
