package autograd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

const gradTol = 1e-6

// sum is the sum of a's elements spelled with the ops the product records:
// the mean scaled back by the element count. Its backward hands every
// element a gradient of exactly 1 (n·1, then divided by n), so it injects an
// upstream gradient g through sum(Mul(out, g)) bit for bit.
func sum(a *Value) *Value { return Scale(Mean(a), float64(len(a.Data.Data))) }

// randUniform returns a rows x cols matrix drawn uniformly from [lo, hi).
func randUniform(rng *rand.Rand, rows, cols int, lo, hi float64) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = lo + (hi-lo)*rng.Float64()
	}
	return m
}

// checkGrad verifies the analytic gradient of build(input-node) w.r.t. input
// against central finite differences. build must produce a scalar Value.
func checkGrad(t *testing.T, name string, input *tensor.Matrix, build func(tp *Tape, x *Value) *Value) {
	t.Helper()
	tape := new(Tape)
	x := tape.Var(input)
	out := build(tape, x)
	out.Backward()
	analytic := x.Grad.Clone()

	numeric := NumericGrad(input, 1e-6, func() float64 {
		tp := new(Tape)
		return build(tp, tp.Var(input)).Item()
	})
	if err := MaxGradError(analytic, numeric); err > gradTol {
		t.Fatalf("%s: gradient error %v > %v\nanalytic=%v\nnumeric=%v", name, err, gradTol, analytic, numeric)
	}
}

// TestGradMatMul gradchecks the product half of Linear: x·w's gradients
// with respect to x and to w.
func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := tensor.RandNormal(rng, 3, 4, 0, 1)
	b := tensor.RandNormal(rng, 4, 2, 0, 1)
	bias := tensor.RandNormal(rng, 1, 2, 0, 1)
	checkGrad(t, "matmul-left", a, func(tp *Tape, x *Value) *Value {
		return sum(Square(Linear(x, tp.Const(b), tp.Const(bias))))
	})
	checkGrad(t, "matmul-right", b, func(tp *Tape, x *Value) *Value {
		return sum(Square(Linear(tp.Const(a), x, tp.Const(bias))))
	})
}

func TestGradAddSubMulDiv(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := tensor.RandNormal(rng, 2, 3, 0, 1)
	b := randUniform(rng, 2, 3, 0.5, 2.0)
	checkGrad(t, "add", a, func(tp *Tape, x *Value) *Value { return sum(Add(x, tp.Const(b))) })
	checkGrad(t, "sub", a, func(tp *Tape, x *Value) *Value { return sum(Sub(x, tp.Const(b))) })
	checkGrad(t, "mul", a, func(tp *Tape, x *Value) *Value { return sum(Mul(x, tp.Const(b))) })
}

// TestGradAddRow gradchecks the bias half of Linear: the gradient with
// respect to the row added to every row of the product.
func TestGradAddRow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := tensor.RandNormal(rng, 4, 3, 0, 1)
	w := tensor.RandNormal(rng, 3, 3, 0, 1)
	bias := tensor.RandNormal(rng, 1, 3, 0, 1)
	checkGrad(t, "addrow-bias", bias, func(tp *Tape, x *Value) *Value {
		return sum(Square(Linear(tp.Const(a), tp.Const(w), x)))
	})
}

func TestGradActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := tensor.RandNormal(rng, 3, 3, 0, 1.5)
	checkGrad(t, "tanh", a, func(tp *Tape, x *Value) *Value { return sum(Tanh(x)) })
	checkGrad(t, "exp", a, func(tp *Tape, x *Value) *Value { return sum(Exp(x)) })
	checkGrad(t, "square", a, func(tp *Tape, x *Value) *Value { return sum(Square(x)) })

	// Clamp needs inputs away from its kinks for finite differences.
	shifted := a.ApplyInto(func(v float64) float64 {
		if math.Abs(v) < 0.05 {
			return v + 0.2
		}
		return v
	}, tensor.New(a.Rows, a.Cols))
	checkGrad(t, "clamp", shifted, func(tp *Tape, x *Value) *Value { return sum(Clamp(x, -0.8, 0.8)) })
}

func TestGradScaleNegAddScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := tensor.RandNormal(rng, 2, 2, 0, 1)
	checkGrad(t, "scale", a, func(tp *Tape, x *Value) *Value { return sum(Scale(x, 2.5)) })
	checkGrad(t, "neg", a, func(tp *Tape, x *Value) *Value { return sum(Neg(x)) })
}

func TestGradReductions(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := tensor.RandNormal(rng, 3, 4, 0, 1)
	checkGrad(t, "mean", a, func(tp *Tape, x *Value) *Value { return Mean(Square(x)) })
	checkGrad(t, "sumrows", a, func(tp *Tape, x *Value) *Value { return sum(Square(SumRows(x))) })
}

func TestGradMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := tensor.RandNormal(rng, 3, 3, 0, 1)
	b := tensor.RandNormal(rng, 3, 3, 0, 1)
	// Perturb ties away (finite differences break at the kink).
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) < 0.05 {
			a.Data[i] += 0.2
		}
	}
	checkGrad(t, "min-a", a, func(tp *Tape, x *Value) *Value { return sum(Minimum(x, tp.Const(b))) })
	checkGrad(t, "min-b", b, func(tp *Tape, x *Value) *Value { return sum(Minimum(tp.Const(a), x)) })
}

func TestGradSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := tensor.RandNormal(rng, 3, 5, 0, 2)
	w := tensor.RandNormal(rng, 3, 5, 0, 1) // random weighting so grads are nontrivial
	checkGrad(t, "softmaxrows", a, func(tp *Tape, x *Value) *Value {
		return sum(Mul(SoftmaxRows(x), tp.Const(w)))
	})
	checkGrad(t, "logsoftmaxrows", a, func(tp *Tape, x *Value) *Value {
		return sum(Mul(LogSoftmaxRows(x), tp.Const(w)))
	})
}

func TestGradPickCols(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := tensor.RandNormal(rng, 4, 6, 0, 1)
	idx := []int{2, 0, 5, 3}
	checkGrad(t, "pickcols", a, func(tp *Tape, x *Value) *Value {
		return sum(Square(PickCols(LogSoftmaxRows(x), idx)))
	})
}

func TestGradMLPChain(t *testing.T) {
	// A full 2-layer MLP with MSE loss: the composition every agent uses.
	rng := rand.New(rand.NewSource(11))
	x := tensor.RandNormal(rng, 5, 8, 0, 1)
	randUniform(rng, 8, 16, -0.5, 0.5) // draws the values below were seeded after
	w1 := tensor.RandNormal(rng, 8, 16, 0, 0.5)
	b1 := tensor.RandNormal(rng, 1, 16, 0, 0.1)
	w2 := tensor.RandNormal(rng, 16, 1, 0, 0.5)
	b2 := tensor.RandNormal(rng, 1, 1, 0, 0.1)
	target := tensor.RandNormal(rng, 5, 1, 0, 1)

	build := func(tp *Tape, params map[string]*Value) *Value {
		h := Tanh(Linear(tp.Const(x), params["w1"], params["b1"]))
		y := Linear(h, params["w2"], params["b2"])
		return Mean(Square(Sub(y, tp.Const(target))))
	}
	mats := map[string]*tensor.Matrix{"w1": w1, "b1": b1, "w2": w2, "b2": b2}
	for name, m := range mats {
		tape := new(Tape)
		params := map[string]*Value{}
		for n2, m2 := range mats {
			if n2 == name {
				params[n2] = tape.Var(m2)
			} else {
				params[n2] = tape.Const(m2)
			}
		}
		out := build(tape, params)
		out.Backward()
		analytic := params[name].Grad.Clone()
		numeric := NumericGrad(m, 1e-6, func() float64 {
			tp := new(Tape)
			ps := map[string]*Value{}
			for n2, m2 := range mats {
				ps[n2] = tp.Const(m2)
			}
			return build(tp, ps).Item()
		})
		if err := MaxGradError(analytic, numeric); err > gradTol {
			t.Fatalf("MLP grad wrt %s: error %v", name, err)
		}
	}
}

func TestParamAccumulatesIntoBuffer(t *testing.T) {
	data := tensor.FromSlice(1, 2, []float64{2, 3})
	grad := tensor.New(1, 2)
	tape := new(Tape)
	p := tape.Param(data, grad)
	sum(Square(p)).Backward()
	want := tensor.FromSlice(1, 2, []float64{4, 6})
	if !grad.ApproxEqual(want, 1e-12) {
		t.Fatalf("Param grad buffer = %v, want %v", grad, want)
	}
	if p.Grad != grad {
		t.Fatal("Param should use the external buffer")
	}
}

func TestParamShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	new(Tape).Param(tensor.New(2, 2), tensor.New(2, 3))
}

func TestBackwardNonScalarPanics(t *testing.T) {
	tape := new(Tape)
	v := tape.Var(tensor.New(2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	v.Backward()
}

func TestItemNonScalarPanics(t *testing.T) {
	tape := new(Tape)
	v := tape.Var(tensor.New(2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	v.Item()
}

func TestCrossTapePanics(t *testing.T) {
	t1, t2 := new(Tape), new(Tape)
	a := t1.Var(tensor.New(1, 1))
	b := t2.Var(tensor.New(1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Add(a, b)
}

func TestConstReceivesNoGrad(t *testing.T) {
	tape := new(Tape)
	c := tape.Const(tensor.FromSlice(1, 1, []float64{2}))
	v := tape.Var(tensor.FromSlice(1, 1, []float64{3}))
	Mul(c, v).Backward()
	if c.Grad != nil {
		t.Fatal("Const should not accumulate gradient")
	}
	if v.Grad.Data[0] != 2 {
		t.Fatalf("Var grad = %v, want 2", v.Grad.Data[0])
	}
}

func TestGradAccumulationAcrossUses(t *testing.T) {
	// f(x) = x·x + 3x  =>  f'(x) = 2x + 3
	tape := new(Tape)
	x := tape.Var(tensor.FromSlice(1, 1, []float64{5}))
	out := Add(Mul(x, x), Scale(x, 3))
	out.Backward()
	if got := x.Grad.Data[0]; math.Abs(got-13) > 1e-12 {
		t.Fatalf("grad = %v, want 13", got)
	}
}

func TestMinimumTieGoesToA(t *testing.T) {
	tape := new(Tape)
	a := tape.Var(tensor.FromSlice(1, 1, []float64{1}))
	b := tape.Var(tensor.FromSlice(1, 1, []float64{1}))
	Minimum(a, b).Backward()
	if a.Grad.Data[0] != 1 {
		t.Fatal("tie gradient should go to a")
	}
	if b.Grad != nil && b.Grad.Data[0] != 0 {
		t.Fatal("tie gradient should not go to b")
	}
}

func TestPickColsOutOfRangePanics(t *testing.T) {
	tape := new(Tape)
	a := tape.Var(tensor.New(2, 3))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PickCols(a, []int{0, 3})
}

// Property: for random small MLP losses, the analytic gradient matches
// numeric within tolerance. This is the load-bearing invariant of the engine.
func TestPropGradcheckRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, in, hidden := 1+r.Intn(3), 1+r.Intn(4), 1+r.Intn(4)
		x := tensor.RandNormal(r, rows, in, 0, 1)
		w := tensor.RandNormal(r, in, hidden, 0, 1)
		bias := tensor.New(1, hidden)
		build := func(tp *Tape, wv *Value) *Value {
			h := Tanh(Linear(tp.Const(x), wv, tp.Const(bias)))
			return Mean(Square(h))
		}
		tape := new(Tape)
		wv := tape.Var(w)
		build(tape, wv).Backward()
		analytic := wv.Grad.Clone()
		numeric := NumericGrad(w, 1e-6, func() float64 {
			tp := new(Tape)
			return build(tp, tp.Const(w)).Item()
		})
		return MaxGradError(analytic, numeric) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkForwardBackwardMLP(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandNormal(rng, 64, 128, 0, 1)
	w1 := tensor.RandNormal(rng, 128, 64, 0, 0.1)
	b1 := tensor.New(1, 64)
	w2 := tensor.RandNormal(rng, 64, 9, 0, 0.1)
	b2 := tensor.New(1, 9)
	g1, gb1 := tensor.New(128, 64), tensor.New(1, 64)
	g2, gb2 := tensor.New(64, 9), tensor.New(1, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g1.Zero()
		gb1.Zero()
		g2.Zero()
		gb2.Zero()
		tp := new(Tape)
		h := Tanh(Linear(tp.Const(x), tp.Param(w1, g1), tp.Param(b1, gb1)))
		y := Linear(h, tp.Param(w2, g2), tp.Param(b2, gb2))
		Mean(Square(y)).Backward()
	}
}
