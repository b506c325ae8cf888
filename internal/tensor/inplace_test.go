package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// bitwiseEqual fails the test unless got and want match exactly (including
// shape) — the Into variants promise bit-identical results, not approximate
// ones.
func bitwiseEqual(t *testing.T, op string, got, want *Matrix) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %dx%d vs %dx%d", op, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d differs: got %v want %v", op, i, got.Data[i], want.Data[i])
		}
	}
}

func TestIntoVariantsAllowAliasedDst(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := RandNormal(rng, 5, 5, 0, 1)

	check := func(op string, into func(m *Matrix) *Matrix, want *Matrix) {
		c := src.Clone()
		bitwiseEqual(t, op, into(c), want)
	}
	check("AddInto aliased", func(m *Matrix) *Matrix { return m.AddInto(m, m) }, src.AddInto(src, New(5, 5)))
	check("ScaleInto aliased", func(m *Matrix) *Matrix { return m.ScaleInto(2, m) }, src.ScaleInto(2, New(5, 5)))
	check("SoftmaxRowsInto aliased", func(m *Matrix) *Matrix { return m.SoftmaxRowsInto(m) }, src.SoftmaxRowsInto(New(5, 5)))
	check("LogSoftmaxRowsInto aliased", func(m *Matrix) *Matrix { return m.LogSoftmaxRowsInto(m) }, src.LogSoftmaxRowsInto(New(5, 5)))
	check("ApplyInto aliased", func(m *Matrix) *Matrix { return m.ApplyInto(math.Tanh, m) }, src.ApplyInto(math.Tanh, New(5, 5)))
}

// naiveMatMul is an independent triple-loop reference for the matmul family.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			for j := 0; j < b.Cols; j++ {
				out.Data[i*b.Cols+j] += a.Data[i*a.Cols+k] * b.Data[k*b.Cols+j]
			}
		}
	}
	return out
}

func TestMatMulVariantsSerialAndParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Small runs entirely in the masked tail panel of the SIMD kernels; big
	// takes the 32- and 8-column panels and two k blocks.
	for _, size := range []struct{ m, n, p int }{{4, 5, 3}, {70, 64, 48}} {
		a := RandNormal(rng, size.m, size.n, 0, 1)
		b := RandNormal(rng, size.n, size.p, 0, 1)
		prod := a.MatMulInto(b, New(size.m, size.p))
		if !prod.ApproxEqual(naiveMatMul(a, b), 1e-9) {
			t.Fatalf("MatMul %dx%dx%d deviates from naive reference", size.m, size.n, size.p)
		}

		bt := b.T() // p x n
		tb := a.MatMulTransBInto(bt, New(size.m, size.p))
		if !tb.ApproxEqual(prod, 1e-12) {
			t.Fatalf("MatMulTransB deviates from MatMul at %dx%dx%d", size.m, size.n, size.p)
		}

		at := a.T() // n x m
		ta := at.MatMulTransAInto(b, New(size.m, size.p))
		if !ta.ApproxEqual(prod, 1e-12) {
			t.Fatalf("MatMulTransA deviates from MatMul at %dx%dx%d", size.m, size.n, size.p)
		}
	}
}

func TestMatMulIntoRejectsAliasedDst(t *testing.T) {
	a := New(3, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("MatMulInto accepted an aliased dst")
		}
	}()
	a.MatMulInto(a, a)
}

// TestSoftmaxPairMatchesSeparate pins the one softmax body: SoftmaxPairInto,
// SoftmaxRowsInto and LogSoftmaxRowsInto all give the bits of the two
// separate row loops they replaced (frozen below), on random rows and on the
// edges — ties for the max, ±1e3 magnitudes whose exps underflow, −Inf
// entries (a masked logit), an all −Inf row, and 1-column rows.
func TestSoftmaxPairMatchesSeparate(t *testing.T) {
	softmaxRef := func(src, out []float64) {
		mx := src[0]
		for _, v := range src[1:] {
			if v > mx {
				mx = v
			}
		}
		sum := 0.0
		for j, v := range src {
			e := math.Exp(v - mx)
			out[j] = e
			sum += e
		}
		inv := 1.0 / sum
		for j := range out {
			out[j] *= inv
		}
	}
	logSoftmaxRef := func(src, out []float64) {
		mx := src[0]
		for _, v := range src[1:] {
			if v > mx {
				mx = v
			}
		}
		sum := 0.0
		for _, v := range src {
			sum += math.Exp(v - mx)
		}
		lse := mx + math.Log(sum)
		for j, v := range src {
			out[j] = v - lse
		}
	}
	inf := math.Inf(-1)
	rng := rand.New(rand.NewSource(17))
	cases := map[string]*Matrix{
		"random":  RandNormal(rng, 7, 9, 0, 3),
		"ties":    FromSlice(2, 4, []float64{1, 3, 3, -2, 0, 0, 0, 0}),
		"large":   FromSlice(2, 3, []float64{1e3, -1e3, 999.5, -1e3, -1e3, -999}),
		"neg-inf": FromSlice(2, 3, []float64{inf, 0.5, inf, inf, inf, inf}),
		"one-col": FromSlice(3, 1, []float64{0.25, -1e3, inf}),
	}
	for name, m := range cases {
		wantP, wantL := New(m.Rows, m.Cols), New(m.Rows, m.Cols)
		for i := 0; i < m.Rows; i++ {
			softmaxRef(m.Row(i), wantP.Row(i))
			logSoftmaxRef(m.Row(i), wantL.Row(i))
		}
		probs, logp := New(m.Rows, m.Cols), New(m.Rows, m.Cols)
		m.SoftmaxPairInto(probs, logp)
		bitwiseEqual(t, name+" pair probs", probs, wantP)
		bitwiseEqual(t, name+" pair logp", logp, wantL)
		bitwiseEqual(t, name+" SoftmaxRowsInto", m.SoftmaxRowsInto(New(m.Rows, m.Cols)), wantP)
		bitwiseEqual(t, name+" LogSoftmaxRowsInto", m.LogSoftmaxRowsInto(New(m.Rows, m.Cols)), wantL)
	}
}
