package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fillMixed fills data with a mix of ordinary values, exact zeros of both
// signs, denormals and exact ±1 — the populations where a SIMD kernel could
// diverge from the scalar one (zero-skip guards, flush-to-zero, signed-zero
// sums, the -1 scalars axpyRows subtracts without multiplying, and the +1
// ones it must still multiply).
func fillMixed(rng *rand.Rand, data []float64) {
	for i := range data {
		switch rng.Intn(12) {
		case 0:
			data[i] = 0
		case 1:
			data[i] = math.Copysign(0, -1)
		case 2:
			data[i] = 5e-324 * float64(1+rng.Intn(100)) // subnormal
		case 3:
			data[i] = -1
		case 4:
			data[i] = 1
		default:
			data[i] = rng.NormFloat64()
		}
	}
}

// fillVoidRuns fills data the way cloudsim's Observe writes the per-vCPU
// block of an observation: per 64-wide slot, a prefix of progress values in
// (0,1] (a finished task reads exactly 1) and idle zeros, then a run of -1
// void markers to the end of the slot. It pins the branch pattern a first
// layer sees in production, runs rather than scattered singletons.
func fillVoidRuns(rng *rand.Rand, data []float64) {
	for start := 0; start < len(data); start += 64 {
		slot := data[start:min(start+64, len(data))]
		present := rng.Intn(len(slot) + 1)
		for i := range slot {
			switch {
			case i >= present:
				slot[i] = -1
			case rng.Intn(4) == 0:
				slot[i] = 0
			case rng.Intn(8) == 0:
				slot[i] = 1
			default:
				slot[i] = 1 - rng.Float64()
			}
		}
	}
}

func cloneMatrix(m *Matrix) *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

func requireBitIdentical(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length mismatch %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: element %d differs: scalar %v (%#x) vs simd %v (%#x)",
				label, i, want[i], math.Float64bits(want[i]), got[i], math.Float64bits(got[i]))
		}
	}
}

// x86DefaultNaN is the quiet NaN the FPU itself produces (Inf-Inf, 0*Inf).
// The tests plant this pattern rather than math.NaN(): when an operation
// meets two different NaNs, which payload survives depends on x86 operand
// order, which neither the compiler nor the kernels promise. With a single
// pattern in play every NaN in a product is this one, and outputs compare
// with Float64bits.
var x86DefaultNaN = math.Float64frombits(0xFFF8000000000000)

// plantSpecials overwrites a few random elements with ±Inf and NaN. Against
// the exact zeros fillMixed leaves in the other operand this is what tells a
// skipped zero scalar (element untouched) from a multiplied one (0*Inf = NaN).
func plantSpecials(rng *rand.Rand, data []float64) {
	for _, v := range []float64{math.Inf(1), math.Inf(-1), x86DefaultNaN} {
		data[rng.Intn(len(data))] = v
	}
}

// forEachSIMDShape calls fn for every rows x inner x cols the kernels must
// agree on, with the fill for the scalar operand m: output widths through
// every panel combination (64-, 32-, masked 8-wide and the cols%8 tail),
// inner dimensions around the k block, and row counts around the four-row
// grouping of the masked panel, all on fillMixed; then the stream
// workload's 561-wide top-k observation on fillVoidRuns, one state and a
// minibatch of 64, and its weight gradient's shape (MatMulTransA's m is then
// the 64 x 561 minibatch).
func forEachSIMDShape(fn func(rows, inner, cols int, fillM func(*rand.Rand, []float64))) {
	for _, cols := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 21, 63, 64, 65} {
		for _, inner := range []int{1, 63, 64, 65, 130} {
			for _, rows := range []int{1, 7, 8, 9, 64} {
				fn(rows, inner, cols, fillMixed)
			}
		}
	}
	fn(64, 538, 64, fillMixed) // the paper-scale first layer
	fn(1, 200, 40, fillMixed)
	fn(16, 3, 72, fillMixed)
	fn(1, 561, 64, fillVoidRuns)
	fn(64, 561, 64, fillVoidRuns)
	fn(561, 64, 64, fillVoidRuns)
}

// simdProduct is one of the four matmul entry points over axpyRows:
// operands allocates m and b for a rows x cols output over the shared
// dimension inner, and run writes m's product with b into out.
type simdProduct struct {
	name     string
	operands func(rows, inner, cols int) (m, b *Matrix)
	run      func(m, b, out *Matrix)
}

var (
	matMul = simdProduct{"MatMulInto",
		func(rows, inner, cols int) (m, b *Matrix) { return New(rows, inner), New(inner, cols) },
		func(m, b, out *Matrix) { m.MatMulInto(b, out) }}
	// out = mᵀ·b is rows x cols, with the shared dim inner.
	matMulTransA = simdProduct{"MatMulTransAInto",
		func(rows, inner, cols int) (m, b *Matrix) { return New(inner, rows), New(inner, cols) },
		func(m, b, out *Matrix) { m.MatMulTransAInto(b, out) }}
	// out = m·bᵀ is rows x cols: b has one row per output column. Unlike
	// the other two, a zero in m is multiplied, not skipped.
	matMulTransB = simdProduct{"MatMulTransBInto",
		func(rows, inner, cols int) (m, b *Matrix) { return New(rows, inner), New(cols, inner) },
		func(m, b, out *Matrix) { m.MatMulTransBInto(b, out) }}
	// out = m·b + bias, the bias row being b's first row: the fused dense
	// layer, whose scalar path is MatMulInto then AddRowBroadcastInto.
	matMulBias = simdProduct{"MatMulBiasInto",
		matMul.operands,
		func(m, b, out *Matrix) {
			m.MatMulBiasInto(b, &Matrix{Rows: 1, Cols: b.Cols, Data: b.Data[:b.Cols]}, out)
		}}
	// out += mᵀ·b, accumulated onto accStart rather than into a zeroed out.
	addMatMulTransA = simdProduct{"AddMatMulTransAInPlace",
		matMulTransA.operands,
		func(m, b, out *Matrix) {
			for i := range out.Data {
				out.Data[i] = accStart[i%len(accStart)]
			}
			out.AddMatMulTransAInPlace(m, b)
		}}
)

// accStart is the destination AddMatMulTransAInPlace accumulates onto in the
// SIMD pins: zeros of both signs (a -0 every term skips must stay -0), ±1, a
// subnormal and ordinary values.
var accStart = []float64{0, math.Copysign(0, -1), 1, -1, 0.37, -2.5, 5e-324, 3}

// requireProductMatchesScalar runs p on m and b with SIMD off and on, into
// dirty destinations the product must not depend on, and requires
// bit-identical outputs.
func requireProductMatchesScalar(t *testing.T, label string, p simdProduct, m, b *Matrix, rows, cols int) {
	t.Helper()
	scalarOut := New(rows, cols)
	simdOut := New(rows, cols)
	scalarOut.Fill(math.Inf(-1))
	simdOut.Fill(x86DefaultNaN)
	prev := SetSIMD(false)
	p.run(m, b, scalarOut)
	SetSIMD(true)
	p.run(m, b, simdOut)
	SetSIMD(prev)
	requireBitIdentical(t, label, scalarOut.Data, simdOut.Data)
}

// checkProductSIMDMatchesScalar compares p's SIMD and scalar paths over
// every shape, once on the shape's fill and once with specials planted in
// both operands.
func checkProductSIMDMatchesScalar(t *testing.T, seed int64, p simdProduct) {
	t.Helper()
	if !SIMDEnabled() {
		t.Skip("no AVX-512 on this machine")
	}
	rng := rand.New(rand.NewSource(seed))
	forEachSIMDShape(func(rows, inner, cols int, fillM func(*rand.Rand, []float64)) {
		for _, specials := range []bool{false, true} {
			m, b := p.operands(rows, inner, cols)
			fillM(rng, m.Data)
			fillMixed(rng, b.Data)
			if specials {
				plantSpecials(rng, m.Data)
				plantSpecials(rng, b.Data)
			}
			requireProductMatchesScalar(t, fmt.Sprintf("%s %dx%dx%d specials=%v", p.name, rows, inner, cols, specials),
				p, m, b, rows, cols)
		}
	})
}

func TestMatMulSIMDMatchesScalar(t *testing.T) { checkProductSIMDMatchesScalar(t, 41, matMul) }

// TestMatMulBiasSIMDMatchesScalar pins the bias epilogue: added once, after
// the last k panel (inner 130 takes three), in every panel and the masked
// four-row groups, it gives the bits of the stored product plus the bias.
func TestMatMulBiasSIMDMatchesScalar(t *testing.T) { checkProductSIMDMatchesScalar(t, 53, matMulBias) }

func TestMatMulTransASIMDMatchesScalar(t *testing.T) {
	checkProductSIMDMatchesScalar(t, 42, matMulTransA)
}

func TestMatMulTransBSIMDMatchesScalar(t *testing.T) {
	checkProductSIMDMatchesScalar(t, 48, matMulTransB)
}

func TestAddMatMulTransASIMDMatchesScalar(t *testing.T) {
	checkProductSIMDMatchesScalar(t, 51, addMatMulTransA)
}

// TestAddMatMulTransAPanelsMatchOneShot pins the reason the accumulating
// entry point exists: streaming the shared dimension through it a row panel
// at a time — panel heights on both sides of the kernel's 64-row k block —
// gives the bits of one MatMulTransAInto over the whole operands, and of
// MatMulInto on the materialized transpose, with SIMD on and off.
func TestAddMatMulTransAPanelsMatchOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, simd := range []bool{false, true} {
		prev := SetSIMD(simd)
		for _, rows := range []int{1, 5, 8} {
			for _, inner := range []int{1, 63, 64, 65, 130, 200} {
				for _, cols := range []int{1, 32, 33} {
					m, b := New(inner, rows), New(inner, cols)
					fillMixed(rng, m.Data)
					fillMixed(rng, b.Data)
					plantSpecials(rng, m.Data)
					plantSpecials(rng, b.Data)
					want := m.MatMulTransAInto(b, New(rows, cols))
					label := fmt.Sprintf("simd=%v %dx%dx%d", simd, rows, inner, cols)
					requireBitIdentical(t, label+" MatMulInto(mᵀ)", want.Data, m.T().MatMulInto(b, New(rows, cols)).Data)
					for _, h := range []int{1, 63, 64, 65} {
						got := New(rows, cols)
						for j0 := 0; j0 < inner; j0 += h {
							j1 := min(j0+h, inner)
							mp := &Matrix{Rows: j1 - j0, Cols: rows, Data: m.Data[j0*rows : j1*rows]}
							bp := &Matrix{Rows: j1 - j0, Cols: cols, Data: b.Data[j0*cols : j1*cols]}
							got.AddMatMulTransAInPlace(mp, bp)
						}
						requireBitIdentical(t, fmt.Sprintf("%s panels of %d", label, h), want.Data, got.Data)
					}
				}
			}
		}
		SetSIMD(prev)
	}
}

// fuzzOperand maps one byte to an operand of FuzzMatMulMatchesScalar. The
// low three bits pick the class — ±0, ±1 (-1 is the scalar axpyRows
// subtracts without multiplying), a subnormal, ±Inf, the default NaN, or
// (5–7) a normal value — the high bit is the sign and bits 3–6 the magnitude.
func fuzzOperand(c byte) float64 {
	sign := 1.0
	if c&0x80 != 0 {
		sign = -1
	}
	mag := float64(c >> 3 & 15)
	switch c & 7 {
	case 0:
		return math.Copysign(0, sign)
	case 1:
		return sign
	case 2:
		return sign * 5e-324 * (1 + mag)
	case 3:
		return math.Inf(int(sign))
	case 4:
		return x86DefaultNaN
	default:
		return sign * (0.1 + 0.37*mag)
	}
}

// FuzzMatMulMatchesScalar compares all five products' SIMD and scalar paths
// bit for bit on shapes up to 70 x 130 x 70, operand element i of m reading
// ops[i % len(ops)] and of b reading ops from the other end, so one input
// steers both operands' patterns.
func FuzzMatMulMatchesScalar(f *testing.F) {
	if !SIMDEnabled() {
		f.Skip("no AVX-512 on this machine")
	}
	finite := []byte{0x81, 0x81, 0x81, 0x01, 0x00, 0x06, 0x36, 0x81, 0x80, 0x02, 0x15}
	specials := []byte{0x83, 0x03, 0x04, 0x81, 0x01, 0x00, 0x80, 0x8a, 0x5e, 0xa5}
	for _, s := range []struct {
		rows, inner, cols uint8 // each one less than the shape
		ops               []byte
	}{
		{69, 129, 69, finite},    // 70x130x70: 64 + masked 6; 17 four-row groups + 2 rows; k blocks 64+64+2
		{4, 63, 46, finite},      // 5x64x47: 32 + 8 + masked 7; one group + 1 row
		{7, 8, 31, specials},     // 8x9x32: one 32 panel, two groups
		{3, 64, 63, specials},    // 4x65x64: one 64 panel, k blocks 64+1
		{2, 0, 7, specials},      // 3x1x8: one full masked panel, single rows, k = 1
		{0, 0, 63, []byte{0x81}}, // 1x1x64: one 64 panel, s = -1
	} {
		f.Add(s.rows, s.inner, s.cols, s.ops)
	}
	f.Fuzz(func(t *testing.T, r, k, c uint8, ops []byte) {
		if len(ops) == 0 {
			return
		}
		rows, inner, cols := 1+int(r)%70, 1+int(k)%130, 1+int(c)%70
		for _, p := range []simdProduct{matMul, matMulBias, matMulTransA, matMulTransB, addMatMulTransA} {
			m, b := p.operands(rows, inner, cols)
			for i := range m.Data {
				m.Data[i] = fuzzOperand(ops[i%len(ops)])
			}
			for i := range b.Data {
				b.Data[i] = fuzzOperand(ops[len(ops)-1-i%len(ops)])
			}
			requireProductMatchesScalar(t, fmt.Sprintf("%s %dx%dx%d", p.name, rows, inner, cols), p, m, b, rows, cols)
		}
	})
}

func TestAddInPlaceSIMDMatchesScalar(t *testing.T) {
	if !SIMDEnabled() {
		t.Skip("no AVX-512 on this machine")
	}
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{1, 7, 8, 9, 31, 32, 33, 64, 100, 537} {
		a := New(1, n)
		b := New(1, n)
		fillMixed(rng, a.Data)
		fillMixed(rng, b.Data)
		scalarA := cloneMatrix(a)
		prev := SetSIMD(false)
		scalarA.AddInPlace(b)
		SetSIMD(true)
		a.AddInPlace(b)
		SetSIMD(prev)
		requireBitIdentical(t, "AddInPlace", scalarA.Data, a.Data)
	}
}

func TestAddScaledInPlaceSIMDMatchesScalar(t *testing.T) {
	if !SIMDEnabled() {
		t.Skip("no AVX-512 on this machine")
	}
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{1, 8, 9, 33, 100, 537} {
		for _, s := range []float64{1.7, -0.3, 0, math.Copysign(0, -1), 5e-324, math.Inf(1), -1, 1} {
			a := New(1, n)
			b := New(1, n)
			fillMixed(rng, a.Data)
			fillMixed(rng, b.Data)
			plantSpecials(rng, a.Data) // ±Inf in a meets ±1·Inf from b: Inf - Inf
			plantSpecials(rng, b.Data) // s == 0 must still turn these into NaN
			scalarA := cloneMatrix(a)
			prev := SetSIMD(false)
			scalarA.AddScaledInPlace(b, s)
			SetSIMD(true)
			a.AddScaledInPlace(b, s)
			SetSIMD(prev)
			requireBitIdentical(t, "AddScaledInPlace", scalarA.Data, a.Data)
		}
	}
}

// TestSetScaledSIMDMatchesScalar pins SetScaled, SIMD and scalar, against
// what it replaces: Zero followed by AddScaledInPlace. Specials and the
// scalars ±0, ±1 and a subnormal cover -0 products, 0·Inf and underflow.
func TestSetScaledSIMDMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for _, n := range []int{1, 7, 8, 9, 33, 64, 65, 537} {
		for _, s := range []float64{1, -1, 1.7, 0, math.Copysign(0, -1), 5e-324, math.Inf(1)} {
			b := New(1, n)
			fillMixed(rng, b.Data)
			plantSpecials(rng, b.Data)
			want := New(1, n).AddScaledInPlace(b, s)
			for _, simd := range []bool{false, true} {
				prev := SetSIMD(simd)
				got := New(1, n)
				got.Fill(x86DefaultNaN) // never read
				got.SetScaled(b, s)
				SetSIMD(prev)
				requireBitIdentical(t, fmt.Sprintf("SetScaled simd=%v n=%d s=%v", simd, n, s), want.Data, got.Data)
			}
		}
	}
}

func TestScaleInPlaceSIMDMatchesScalar(t *testing.T) {
	if !SIMDEnabled() {
		t.Skip("no AVX-512 on this machine")
	}
	rng := rand.New(rand.NewSource(55))
	for _, n := range []int{1, 7, 8, 9, 31, 32, 33, 64, 100, 537} {
		for _, s := range []float64{0.37, -1, 0, math.Copysign(0, -1), 1e-300, math.Inf(-1)} {
			a := New(1, n)
			fillMixed(rng, a.Data)
			plantSpecials(rng, a.Data)
			scalarA := cloneMatrix(a)
			prev := SetSIMD(false)
			scalarA.ScaleInPlace(s)
			SetSIMD(true)
			a.ScaleInPlace(s)
			SetSIMD(prev)
			requireBitIdentical(t, fmt.Sprintf("ScaleInPlace n=%d s=%v", n, s), scalarA.Data, a.Data)
		}
	}
}

// TestSumColsSIMDMatchesScalar pins the row-at-a-time column sum (the bias
// gradient) to the scalar loop: same +0 start, same row order per column.
func TestSumColsSIMDMatchesScalar(t *testing.T) {
	if !SIMDEnabled() {
		t.Skip("no AVX-512 on this machine")
	}
	rng := rand.New(rand.NewSource(56))
	for _, rows := range []int{1, 2, 17, 64, 65} {
		for _, cols := range []int{1, 6, 8, 9, 63, 64, 65} {
			m := New(rows, cols)
			fillMixed(rng, m.Data)
			plantSpecials(rng, m.Data)
			scalarOut, simdOut := New(1, cols), New(1, cols)
			simdOut.Fill(x86DefaultNaN)
			prev := SetSIMD(false)
			m.SumColsInto(scalarOut)
			SetSIMD(true)
			m.SumColsInto(simdOut)
			SetSIMD(prev)
			requireBitIdentical(t, fmt.Sprintf("SumColsInto %dx%d", rows, cols), scalarOut.Data, simdOut.Data)
		}
	}
}

// TestAllPositiveZero plants one non-(+0) element — -0, the smallest
// subnormal, NaN, 1 — at every position of +0 buffers of every tail length,
// and checks both paths see it (and see the clean buffer as clean).
func TestAllPositiveZero(t *testing.T) {
	for _, simd := range []bool{false, true} {
		prev := SetSIMD(simd)
		for _, n := range []int{0, 1, 7, 8, 9, 31, 32, 33, 64, 65, 100} {
			m := New(1, n)
			if !m.AllPositiveZero() {
				t.Fatalf("simd=%v n=%d: a zeroed buffer reads as dirty", simd, n)
			}
			for _, v := range []float64{math.Copysign(0, -1), 5e-324, x86DefaultNaN, 1} {
				for i := range m.Data {
					m.Data[i] = v
					if m.AllPositiveZero() {
						t.Fatalf("simd=%v n=%d: %v at %d reads as clean", simd, n, v, i)
					}
					m.Data[i] = 0
				}
			}
		}
		SetSIMD(prev)
	}
}

func TestAddTanhGradSIMDMatchesScalar(t *testing.T) {
	if !SIMDEnabled() {
		t.Skip("no AVX-512 on this machine")
	}
	rng := rand.New(rand.NewSource(47))
	for _, n := range []int{1, 7, 8, 9, 33, 64, 100, 537} {
		dst := New(1, n)
		g := New(1, n)
		y := New(1, n)
		fillMixed(rng, dst.Data)
		fillMixed(rng, g.Data)
		for i := range y.Data {
			y.Data[i] = math.Tanh(rng.NormFloat64()) // tanh outputs ∈ (-1,1)
		}
		scalarDst := cloneMatrix(dst)
		prev := SetSIMD(false)
		scalarDst.AddTanhGradInPlace(g, y)
		SetSIMD(true)
		dst.AddTanhGradInPlace(g, y)
		SetSIMD(prev)
		requireBitIdentical(t, "AddTanhGradInPlace", scalarDst.Data, dst.Data)
	}
}

func TestAdamUpdateSIMDMatchesScalar(t *testing.T) {
	if !SIMDEnabled() {
		t.Skip("no AVX-512 on this machine")
	}
	rng := rand.New(rand.NewSource(45))
	const lr, beta1, beta2, eps = 3e-4, 0.9, 0.999, 1e-8
	for _, n := range []int{1, 8, 15, 64, 70, 537} {
		p1 := make([]float64, n)
		g := make([]float64, n)
		m1 := make([]float64, n)
		v1 := make([]float64, n)
		fillMixed(rng, p1)
		fillMixed(rng, m1)
		for i := range v1 {
			v1[i] = math.Abs(rng.NormFloat64()) // second moments are nonnegative
		}
		p2 := append([]float64(nil), p1...)
		m2 := append([]float64(nil), m1...)
		v2 := append([]float64(nil), v1...)

		// Several consecutive steps exercise evolving moment state, at the
		// clip's scales: 1 (not clipped), one below it, and one whose
		// products go subnormal. The gradient is consumed by each call, so
		// every step gets a fresh fill and each path its own copy.
		for step, scale := range []float64{1, 0.37, 1e-310, 1} {
			step++
			fillMixed(rng, g)
			g1 := append([]float64(nil), g...)
			g2 := append([]float64(nil), g...)
			bc1 := 1 - math.Pow(beta1, float64(step))
			bc2 := 1 - math.Pow(beta2, float64(step))
			prev := SetSIMD(false)
			adamUpdate(p1, g1, m1, v1, lr, beta1, beta2, eps, bc1, bc2, scale)
			SetSIMD(true)
			adamUpdate(p2, g2, m2, v2, lr, beta1, beta2, eps, bc1, bc2, scale)
			SetSIMD(prev)
			for i := range g1 {
				if g1[i] != 0 || g2[i] != 0 {
					t.Fatalf("adamUpdate left gradient residue at %d: scalar %v simd %v", i, g1[i], g2[i])
				}
			}
		}
		requireBitIdentical(t, "adamUpdate p", p1, p2)
		requireBitIdentical(t, "adamUpdate m", m1, m2)
		requireBitIdentical(t, "adamUpdate v", v1, v2)
	}
}

// tanhEdges are the inputs at and around every branch boundary of math.tanh
// (each is also tried negated).
func tanhEdges() []float64 {
	const halfMaxLog = 0.5 * 8.8029691931113054295988e+01
	edges := []float64{
		0, 5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308,
		1e-20, 0.1, 0.5, 1, 10, 44, 100, 1e300, math.MaxFloat64, math.Inf(1),
		math.NaN(), x86DefaultNaN, math.Float64frombits(0x7FF0000000000001), // quiet, default and signalling NaN
	}
	for _, c := range []float64{0.625, halfMaxLog} {
		edges = append(edges, math.Nextafter(c, 0), c, math.Nextafter(c, math.Inf(1)))
	}
	for _, v := range edges {
		edges = append(edges, -v)
	}
	return edges
}

// requireTanhMatchesMath runs src.TanhInto(dst) and compares every element
// with math.Tanh bit for bit.
func requireTanhMatchesMath(t *testing.T, src, dst *Matrix) {
	t.Helper()
	in := append([]float64(nil), src.Data...) // dst may be src
	src.TanhInto(dst)
	for i, x := range in {
		want, got := math.Tanh(x), dst.Data[i]
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("element %d of %d: tanh(%v = %#x): math.Tanh %v (%#x), TanhInto %v (%#x)",
				i, len(in), x, math.Float64bits(x), want, math.Float64bits(want), got, math.Float64bits(got))
		}
	}
}

// TestTanhIntoMatchesMath pins the tanh kernel as a transcription of the
// toolchain's math.Tanh: if it fails after a toolchain bump, math.Tanh
// changed — re-transcribe tanh_amd64.s or drop the fast path; do not loosen
// the comparison.
func TestTanhIntoMatchesMath(t *testing.T) {
	edges := tanhEdges()
	t.Run("edges", func(t *testing.T) {
		src := FromSlice(1, len(edges), edges)
		requireTanhMatchesMath(t, src, New(1, len(edges)))
	})
	t.Run("lengths", func(t *testing.T) {
		// Every n%8 tail, each edge visiting each lane, out of place and in
		// place (MLP.Infer activates in place).
		for n := 1; n <= 17; n++ {
			for off := range edges {
				src := New(1, n)
				for i := range src.Data {
					src.Data[i] = edges[(off+i)%len(edges)]
				}
				guarded := New(1, n+1) // a store past n would hit the guard
				guarded.Data[n] = 12345
				dst := FromSlice(1, n, guarded.Data[:n])
				requireTanhMatchesMath(t, src, dst)
				if guarded.Data[n] != 12345 {
					t.Fatalf("n=%d: TanhInto wrote past the end of dst", n)
				}
				requireTanhMatchesMath(t, src, src)
			}
		}
	})
	t.Run("sweep", func(t *testing.T) {
		if !SIMDEnabled() {
			t.Skip("no AVX-512 on this machine: TanhInto is math.Tanh")
		}
		perDist := 2_750_000 // x4 distributions = 11 M inputs
		if testing.Short() {
			perDist = 100_000
		}
		dists := []struct {
			name string
			draw func(rng *rand.Rand) float64
		}{
			{"N(0,1)", func(rng *rand.Rand) float64 { return rng.NormFloat64() }},
			{"N(0,10)", func(rng *rand.Rand) float64 { return 10 * rng.NormFloat64() }},
			{"U(-50,50)", func(rng *rand.Rand) float64 { return 100*rng.Float64() - 50 }},
			{"bits", func(rng *rand.Rand) float64 { return math.Float64frombits(rng.Uint64()) }},
		}
		const chunk = 1 << 14
		src, dst := New(1, chunk), New(1, chunk)
		for di, d := range dists {
			rng := rand.New(rand.NewSource(int64(49 + di)))
			for done := 0; done < perDist; done += chunk {
				for i := range src.Data {
					src.Data[i] = d.draw(rng)
				}
				requireTanhMatchesMath(t, src, dst)
			}
		}
	})
}

func FuzzTanhMatchesMath(f *testing.F) {
	for _, x := range tanhEdges() {
		f.Add(math.Float64bits(x), math.Float64bits(-x))
	}
	f.Fuzz(func(t *testing.T, a, b uint64) {
		// Nine elements: a full vector and a one-lane tail, the two inputs
		// alternating so each meets the other's branch in the same vector.
		src := New(1, 9)
		for i := range src.Data {
			src.Data[i] = math.Float64frombits(a)
			if i%2 == 1 {
				src.Data[i] = math.Float64frombits(b)
			}
		}
		requireTanhMatchesMath(t, src, New(1, 9))
	})
}

// BenchmarkTanh times the activation of one 64x64 minibatch of N(0,1)
// pre-activations through the kernel and through math.Tanh. (The end-to-end
// ledger's tensor.tanh_ns_per_elem probe calls ApplyInto(math.Tanh) and so
// keeps timing the scalar reference.)
func BenchmarkTanh(b *testing.B) {
	rng := rand.New(rand.NewSource(50))
	src, dst := RandNormal(rng, 64, 64, 0, 1), New(64, 64)
	b.Run("TanhInto", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			src.TanhInto(dst)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src.Data)), "ns/elem")
	})
	b.Run("ApplyInto(math.Tanh)", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			src.ApplyInto(math.Tanh, dst)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src.Data)), "ns/elem")
	})
}
