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

// OrthogonalScaled returns a fanOut x fanIn matrix of standard normal draws
// put through Gram–Schmidt across its rows, each row scaled to norm gain.
// Orthogonal initialization is the standard choice for PPO policy layers.
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
// With AVX-512 the projections run sixteen rows at a time (gramSchmidtSIMD),
// with the bits of gramSchmidtScalar, the reference and portable loop. A
// head of eight rows or fewer stays on the scalar loop: its at most 28
// projections cost less than moving a padded block in and out.
func OrthogonalScaled(rng *rand.Rand, fanOut, fanIn int, gain float64) *Matrix {
	m := RandNormal(rng, fanOut, fanIn, 0, 1)
	if simdEnabled && fanOut > gsLanes/2 && fanIn > 0 {
		gramSchmidtSIMD(rng, m, gain)
	} else {
		gramSchmidtScalar(rng, m, gain)
	}
	return m
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
		finishRow(rng, ri, gain)
	}
}

// finishRow scales a projected row to norm gain, first redrawing it from rng
// when nothing is left of it (possible when fanOut > fanIn).
func finishRow(rng *rand.Rand, r []float64, gain float64) {
	norm := math.Sqrt(sumSquares(r))
	if norm < 1e-12 {
		for k := range r {
			r[k] = rng.NormFloat64()
		}
		norm = math.Sqrt(sumSquares(r))
	}
	inv := gain / norm
	for k := range r {
		r[k] *= inv
	}
}

func sumSquares(r []float64) float64 {
	s := 0.0
	for _, v := range r {
		s += v * v
	}
	return s
}

// gsLanes is the row-block width of gramSchmidtSIMD: two ZMM registers of
// eight lanes, one lane per row.
const gsLanes = 16

// gramSchmidtSIMD is gramSchmidtScalar sixteen rows at a time. A block of
// rows is transposed k-major into pooled scratch; gsProject projects it
// against all earlier, finished rows in one call, each lane doing its row's
// scalar operations in their order. Then, in row order, each row is copied
// out and finished, and the block's later rows are projected against it —
// every lane is, but the earlier ones are already copied out, so what
// happens to them does not matter. Each row thus sees the finished rows
// j < min(i, fanIn) in ascending j, and rng is read by finishRow in row
// order, as in the scalar loop.
func gramSchmidtSIMD(rng *rand.Rand, m *Matrix, gain float64) {
	n := m.Cols
	x := defaultPool.GetUninit(n, gsLanes)
	for b0 := 0; b0 < m.Rows; b0 += gsLanes {
		rows := min(gsLanes, m.Rows-b0)
		for l := range gsLanes {
			if l < rows {
				for k, v := range m.Row(b0 + l) {
					x.Data[k*gsLanes+l] = v
				}
			} else {
				for k := range n {
					x.Data[k*gsLanes+l] = 0
				}
			}
		}
		if p := min(b0, n); p > 0 {
			gsProject(&x.Data[0], &m.Data[0], p, n)
		}
		for l := range rows {
			i := b0 + l
			ri := m.Row(i)
			for k := range ri {
				ri[k] = x.Data[k*gsLanes+l]
			}
			finishRow(rng, ri, gain)
			if l+1 < rows && i < n {
				gsProject(&x.Data[0], &ri[0], 1, n)
			}
		}
	}
	defaultPool.Put(x)
}
