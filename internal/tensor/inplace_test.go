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
	check("AddInto aliased", func(m *Matrix) *Matrix { return m.AddInto(m, m) }, src.Add(src))
	check("ScaleInto aliased", func(m *Matrix) *Matrix { return m.ScaleInto(2, m) }, src.Scale(2))
	check("SoftmaxRowsInto aliased", func(m *Matrix) *Matrix { return m.SoftmaxRowsInto(m) }, src.SoftmaxRows())
	check("LogSoftmaxRowsInto aliased", func(m *Matrix) *Matrix { return m.LogSoftmaxRowsInto(m) }, src.LogSoftmaxRows())
	check("ApplyInto aliased", func(m *Matrix) *Matrix { return m.ApplyInto(math.Tanh, m) }, src.Apply(math.Tanh))
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
		prod := a.MatMul(b)
		if !prod.ApproxEqual(naiveMatMul(a, b), 1e-9) {
			t.Fatalf("MatMul %dx%dx%d deviates from naive reference", size.m, size.n, size.p)
		}
		bitwiseEqual(t, "MatMulInto", a.MatMulInto(b, New(size.m, size.p)), prod)

		bt := b.T() // p x n
		tb := a.MatMulTransB(bt)
		if !tb.ApproxEqual(prod, 1e-12) {
			t.Fatalf("MatMulTransB deviates from MatMul at %dx%dx%d", size.m, size.n, size.p)
		}
		bitwiseEqual(t, "MatMulTransBInto", a.MatMulTransBInto(bt, New(size.m, size.p)), tb)

		at := a.T() // n x m
		ta := at.MatMulTransA(b)
		if !ta.ApproxEqual(prod, 1e-12) {
			t.Fatalf("MatMulTransA deviates from MatMul at %dx%dx%d", size.m, size.n, size.p)
		}
		bitwiseEqual(t, "MatMulTransAInto", at.MatMulTransAInto(b, New(size.m, size.p)), ta)
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
