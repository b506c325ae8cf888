package tensor

import (
	"math"
	"math/rand"
)

// RandNormal returns a rows x cols matrix with elements drawn from
// N(mean, std²) using rng.
func RandNormal(rng *rand.Rand, rows, cols int, mean, std float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = mean + std*rng.NormFloat64()
	}
	return m
}

// OrthogonalScaled returns the fanIn x fanOut weight of an x·W layer: fanOut
// rows of fanIn standard normal draws, put through Gram–Schmidt across the
// rows, each row scaled to norm gain and stored as a column. Orthogonal
// initialization is the standard choice for PPO policy layers. The draws
// fill the rows in order, into pooled scratch, and the result is the one
// allocation.
//
// Each row is projected against the earlier rows as already scaled, not
// against unit rows, so only at gain 1 are the first min(fanOut, fanIn) rows
// orthonormal (to rounding; a later row has nothing left after its
// projections and is redrawn, unprojected). At gain g a projection removes
// the fraction g² of the component, and the rows keep correlations of order
// 1 − g²: the 6×64 actor head at gain 0.01 has |cos| up to 0.2 between rows
// (DESIGN §6 note 8). Every trained result depends on these bits, so the fix
// waits for a change that may move them.
//
// With AVX-512 the projections run 32 rows at a time on axpyRows
// (gramSchmidtSIMD), with the bits of gramSchmidtScalar, the reference and
// portable loop. A head of eight rows or fewer stays on the scalar loop: its
// at most 28 projections cost less than moving a block in and out.
func OrthogonalScaled(rng *rand.Rand, fanOut, fanIn int, gain float64) *Matrix {
	m := defaultPool.GetUninit(fanOut, fanIn)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	if simdEnabled && fanOut > 8 && fanIn > 0 {
		gramSchmidtSIMD(rng, m, gain)
	} else {
		gramSchmidtScalar(rng, m, gain)
	}
	w := New(fanIn, fanOut)
	for k := range fanIn {
		for i := range w.Row(k) {
			w.Data[k*fanOut+i] = m.Data[i*fanIn+k]
		}
	}
	defaultPool.Put(m)
	return w
}

// gramSchmidtScalar projects every row of m against the earlier rows (as many
// as fit in the row space) and finishes it before the next row reads it.
func gramSchmidtScalar(rng *rand.Rand, m *Matrix, gain float64) {
	for i := 0; i < m.Rows; i++ {
		ri := m.Row(i)
		for j := 0; j < i && j < m.Cols; j++ {
			rj := m.Row(j)
			dot := 0.0
			for k := range ri {
				dot += ri[k] * rj[k]
			}
			for k := range ri {
				ri[k] -= dot * rj[k]
			}
		}
		finishRow(rng, ri, sumSquares(ri), gain)
	}
}

// finishRow scales a projected row, whose sum of squares is ss, to norm
// gain, first redrawing it from rng when nothing is left of it (possible
// when fanOut > fanIn).
func finishRow(rng *rand.Rand, r []float64, ss, gain float64) {
	norm := math.Sqrt(ss)
	if norm < 1e-12 {
		for k := range r {
			r[k] = rng.NormFloat64()
		}
		norm = math.Sqrt(sumSquares(r))
	}
	(&Matrix{Rows: 1, Cols: len(r), Data: r}).ScaleInPlace(gain / norm)
}

func sumSquares(r []float64) float64 {
	s := 0.0
	for _, v := range r {
		s += v * v
	}
	return s
}

// gsLanes is the row-block width of gramSchmidtSIMD: one 32-column panel of
// axpyRows, four ZMM accumulators.
const gsLanes = 32

// gramSchmidtSIMD is gramSchmidtScalar 32 rows at a time. A block of rows is
// transposed k-major into pooled scratch, one column per row, and projected
// against each earlier, finished row in ascending order. Then, in row order,
// each row is copied out (its sum of squares taken in the same pass) and
// finished, and the block's later rows are projected against it — every
// column is, but the earlier ones are already copied out, so what happens to
// them does not matter. Each row thus sees the finished rows
// j < min(i, fanIn) in ascending j, and rng is read by finishRow in row
// order, as in the scalar loop.
//
// A projection is two axpyRows passes over the block's cols columns. The
// first writes the dots, d[l] = Σ_k r[k]·x[k][l] from +0 in k order: the
// scalar loop's `dot += ri[k]*rj[k]`, products commuted. The second adds
// r[k]·(−d[l]) to every x[k][l]: negation is exact, so that product is
// −(d·r[k]), and IEEE 754 defines a − b as a + (−b), so the sum is the
// scalar loop's `ri[k] -= dot*rj[k]` bit for bit. The dots are negated by a
// multiply by −1 (vecScale), not by Go's `-`: both are exact, but the
// multiply leaves a NaN as it is where `-` (and the compiler's rewrite of
// `d * -1`) flips its sign, and the scalar loop never flips one — at gains
// large enough to overflow, every NaN is the x86 default pattern.
func gramSchmidtSIMD(rng *rand.Rand, m *Matrix, gain float64) {
	n := m.Cols
	x := defaultPool.GetUninit(n, gsLanes)
	d := defaultPool.GetUninit(1, gsLanes)
	project := func(r []float64, cols int) {
		axpyRows(&d.Data[0], &x.Data[0], &r[0], nil, n, cols, 1, gsLanes, 1, gsLanes, 0, false, false)
		vecScale(&d.Data[0], -1, gsLanes)
		axpyRows(&x.Data[0], &d.Data[0], &r[0], nil, 1, cols, n, 0, 1, gsLanes, 1, false, true)
	}
	for b0 := 0; b0 < m.Rows; b0 += gsLanes {
		rows := min(gsLanes, m.Rows-b0)
		for k := range n {
			for l := range rows {
				x.Data[k*gsLanes+l] = m.Data[(b0+l)*n+k]
			}
		}
		for j := range min(b0, n) {
			project(m.Row(j), rows)
		}
		for l := range rows {
			i := b0 + l
			ri, ss := m.Row(i), 0.0
			for k := range ri {
				v := x.Data[k*gsLanes+l]
				ri[k] = v
				ss += v * v // sumSquares' order; the copy rides on its add chain
			}
			finishRow(rng, ri, ss, gain)
			if l+1 < rows && i < n {
				project(ri, rows)
			}
		}
	}
	defaultPool.Put(x)
	defaultPool.Put(d)
}
