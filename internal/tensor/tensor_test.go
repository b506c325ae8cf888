package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShape(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New not zero-initialized")
		}
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative shape")
		}
	}()
	New(-1, 2)
}

func TestFromSlice(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if m.At(0, 0) != 1 || m.At(0, 2) != 3 || m.At(1, 0) != 4 || m.At(1, 2) != 6 {
		t.Fatalf("FromSlice layout wrong: %v", m.Data)
	}
}

func TestFromSlicePanicsOnBadLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 || m.At(2, 1) != 6 {
		t.Fatalf("FromRows wrong: %v", m)
	}
	empty := FromRows(nil)
	if empty.Rows != 0 || empty.Cols != 0 {
		t.Fatal("FromRows(nil) should be 0x0")
	}
}

func TestFromRowsRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestVectors(t *testing.T) {
	rv := RowVector([]float64{1, 2, 3})
	cv := ColVector([]float64{1, 2, 3})
	if rv.Rows != 1 || rv.Cols != 3 || cv.Rows != 3 || cv.Cols != 1 {
		t.Fatal("vector constructors wrong shapes")
	}
}

func TestAtSetBounds(t *testing.T) {
	m := New(2, 2)
	m.Set(1, 1, 7)
	if m.At(1, 1) != 7 {
		t.Fatal("Set/At roundtrip failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for OOB At")
		}
	}()
	m.At(2, 0)
}

func TestRowAliases(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	r := m.Row(1)
	r[0] = 99
	if m.At(1, 0) != 99 {
		t.Fatal("Row should alias storage")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := FromSlice(1, 2, []float64{1, 2})
	c := m.Clone()
	c.Data[0] = 42
	if m.Data[0] == 42 {
		t.Fatal("Clone should deep copy")
	}
}

func TestAddSubMulDiv(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{5, 6, 7, 8})
	if got := a.Add(b); !got.ApproxEqual(FromSlice(2, 2, []float64{6, 8, 10, 12}), 0) {
		t.Fatalf("Add: %v", got)
	}
	if got := b.Sub(a); !got.ApproxEqual(Full(2, 2, 4), 0) {
		t.Fatalf("Sub: %v", got)
	}
	if got := a.MulElemInto(b, New(2, 2)); !got.ApproxEqual(FromSlice(2, 2, []float64{5, 12, 21, 32}), 0) {
		t.Fatalf("MulElemInto: %v", got)
	}
	if got := b.DivElemInto(a, New(2, 2)); !got.ApproxEqual(FromSlice(2, 2, []float64{5, 3, 7.0 / 3, 2}), 1e-12) {
		t.Fatalf("DivElemInto: %v", got)
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{10, 20, 30})
	a.AddInPlace(b)
	if !a.ApproxEqual(FromSlice(1, 3, []float64{11, 22, 33}), 0) {
		t.Fatalf("AddInPlace: %v", a)
	}
	a.AddScaledInPlace(b, -1)
	if !a.ApproxEqual(FromSlice(1, 3, []float64{1, 2, 3}), 1e-12) {
		t.Fatalf("AddScaledInPlace: %v", a)
	}
	a.ScaleInPlace(2)
	if !a.ApproxEqual(FromSlice(1, 3, []float64{2, 4, 6}), 0) {
		t.Fatalf("ScaleInPlace: %v", a)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	New(2, 2).Add(New(2, 3))
}

func TestTranspose(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	want := FromSlice(3, 2, []float64{1, 4, 2, 5, 3, 6})
	if got := m.T(); !got.ApproxEqual(want, 0) {
		t.Fatalf("T: %v", got)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if got := a.MatMul(b); !got.ApproxEqual(want, 1e-12) {
		t.Fatalf("MatMul: %v", got)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := RandNormal(rng, 5, 5, 0, 1)
	eye := New(5, 5)
	for i := 0; i < 5; i++ {
		eye.Set(i, i, 1)
	}
	if got := m.MatMul(eye); !got.ApproxEqual(m, 1e-12) {
		t.Fatal("M·I != M")
	}
	if got := eye.MatMul(m); !got.ApproxEqual(m, 1e-12) {
		t.Fatal("I·M != M")
	}
}

func TestMatMulTransB(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := RandNormal(rng, 4, 6, 0, 1)
	b := RandNormal(rng, 5, 6, 0, 1)
	if got, want := a.MatMulTransB(b), a.MatMul(b.T()); !got.ApproxEqual(want, 1e-10) {
		t.Fatal("MatMulTransB disagrees with explicit transpose")
	}
}

func TestMatMulTransA(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := RandNormal(rng, 6, 4, 0, 1)
	b := RandNormal(rng, 6, 5, 0, 1)
	if got, want := a.MatMulTransA(b), a.T().MatMul(b); !got.ApproxEqual(want, 1e-10) {
		t.Fatal("MatMulTransA disagrees with explicit transpose")
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).MatMul(New(2, 3))
}

func TestAddRowBroadcast(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := RowVector([]float64{10, 20, 30})
	want := FromSlice(2, 3, []float64{11, 22, 33, 14, 25, 36})
	if got := m.AddRowBroadcastInto(b, New(2, 3)); !got.ApproxEqual(want, 0) {
		t.Fatalf("AddRowBroadcastInto: %v", got)
	}
}

func TestReductions(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if m.Sum() != 21 {
		t.Fatalf("Sum = %v", m.Sum())
	}
	if m.Mean() != 3.5 {
		t.Fatalf("Mean = %v", m.Mean())
	}
	if m.Max() != 6 || m.Min() != 1 {
		t.Fatalf("Max/Min = %v/%v", m.Max(), m.Min())
	}
	if got := m.SumRows(); !got.ApproxEqual(ColVector([]float64{6, 15}), 0) {
		t.Fatalf("SumRows: %v", got)
	}
	if got := m.SumCols(); !got.ApproxEqual(RowVector([]float64{5, 7, 9}), 0) {
		t.Fatalf("SumCols: %v", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if New(0, 0).Mean() != 0 {
		t.Fatal("Mean of empty should be 0")
	}
}

func TestNormDot(t *testing.T) {
	a := FromSlice(1, 3, []float64{3, 4, 0})
	if a.Norm2() != 5 {
		t.Fatalf("Norm2 = %v", a.Norm2())
	}
}

func TestSoftmaxRows(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 1000, 1000, 1000})
	s := m.SoftmaxRows()
	for i := 0; i < 2; i++ {
		sum := 0.0
		for _, v := range s.Row(i) {
			if v <= 0 || v >= 1 {
				t.Fatalf("softmax value out of (0,1): %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("softmax row %d sums to %v", i, sum)
		}
	}
	// Large-magnitude row must not produce NaN (stability).
	for _, v := range s.Data {
		if math.IsNaN(v) {
			t.Fatal("softmax produced NaN on large inputs")
		}
	}
	// Monotonic: larger logit -> larger probability.
	if !(s.At(0, 2) > s.At(0, 1) && s.At(0, 1) > s.At(0, 0)) {
		t.Fatal("softmax not monotone in logits")
	}
}

func TestLogSoftmaxRowsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := RandNormal(rng, 4, 7, 0, 3)
	ls := m.LogSoftmaxRows()
	sm := m.SoftmaxRows()
	for i := range ls.Data {
		if math.Abs(math.Exp(ls.Data[i])-sm.Data[i]) > 1e-10 {
			t.Fatal("exp(logsoftmax) != softmax")
		}
	}
}

func TestApplyAndScalar(t *testing.T) {
	m := FromSlice(1, 3, []float64{1, 4, 9})
	if got := m.Apply(math.Sqrt); !got.ApproxEqual(FromSlice(1, 3, []float64{1, 2, 3}), 1e-12) {
		t.Fatalf("Apply: %v", got)
	}
}

func TestStringDoesNotPanic(t *testing.T) {
	_ = New(20, 20).String()
	_ = New(0, 0).String()
}

// --- Property-based tests ---

func randMatrixPair(r *rand.Rand) (*Matrix, *Matrix) {
	rows := 1 + r.Intn(6)
	cols := 1 + r.Intn(6)
	a := RandNormal(r, rows, cols, 0, 10)
	b := RandNormal(r, rows, cols, 0, 10)
	return a, b
}

func TestPropAddCommutative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randMatrixPair(r)
		return a.Add(b).ApproxEqual(b.Add(a), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, _ := randMatrixPair(r)
		return a.T().T().ApproxEqual(a, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropMatMulDistributes(t *testing.T) {
	// A·(B+C) == A·B + A·C
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m, p := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a := RandNormal(r, n, m, 0, 2)
		b := RandNormal(r, m, p, 0, 2)
		c := RandNormal(r, m, p, 0, 2)
		lhs := a.MatMul(b.Add(c))
		rhs := a.MatMul(b).Add(a.MatMul(c))
		return lhs.ApproxEqual(rhs, 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropMatMulTransposeIdentity(t *testing.T) {
	// (A·B)ᵀ == Bᵀ·Aᵀ
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m, p := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a := RandNormal(r, n, m, 0, 2)
		b := RandNormal(r, m, p, 0, 2)
		return a.MatMul(b).T().ApproxEqual(b.T().MatMul(a.T()), 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropSoftmaxRowsSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, _ := randMatrixPair(r)
		s := a.SoftmaxRows()
		for i := 0; i < s.Rows; i++ {
			sum := 0.0
			for _, v := range s.Row(i) {
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropScaleLinear(t *testing.T) {
	f := func(seed int64, s float64) bool {
		if math.IsNaN(s) || math.IsInf(s, 0) || math.Abs(s) > 1e6 {
			return true
		}
		r := rand.New(rand.NewSource(seed))
		a, b := randMatrixPair(r)
		lhs := a.Add(b).Scale(s)
		rhs := a.Scale(s).Add(b.Scale(s))
		return lhs.ApproxEqual(rhs, 1e-6*(1+math.Abs(s)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOrthogonalRows(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	w := OrthogonalScaled(rng, 4, 16, 1.0)
	if w.Rows != 16 || w.Cols != 4 {
		t.Fatalf("got %dx%d, want the 16x4 x·W layout", w.Rows, w.Cols)
	}
	m := w.T() // one orthonormal row per output unit
	for i := 0; i < 4; i++ {
		ri := RowVector(m.Row(i))
		if math.Abs(ri.Norm2()-1) > 1e-9 {
			t.Fatalf("row %d norm %v", i, ri.Norm2())
		}
		for j := 0; j < i; j++ {
			dot := 0.0
			for k, v := range m.Row(i) {
				dot += v * m.Row(j)[k]
			}
			if math.Abs(dot) > 1e-9 {
				t.Fatalf("rows %d,%d not orthogonal: %v", i, j, dot)
			}
		}
	}
}

func BenchmarkMatMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := RandNormal(rng, 64, 538, 0, 1)
	w := RandNormal(rng, 538, 64, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.MatMul(w)
	}
}

func BenchmarkMatMulLargeParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := RandNormal(rng, 256, 256, 0, 1)
	w := RandNormal(rng, 256, 256, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.MatMul(w)
	}
}
