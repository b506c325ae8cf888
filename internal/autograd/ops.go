package autograd

import (
	"fmt"
	"math"
)

// Every operator below allocates its forward result through the tape
// (pool-backed for pooled tapes) and computes it with the tensor package's
// in-place kernels, which are bitwise identical to the allocating ones.
// Backward closures draw their temporaries from the tape as well and release
// them as soon as the gradient has been accumulated, so a pooled tape's
// backward pass recycles a handful of scratch matrices instead of allocating
// per node.

// Linear returns the dense layer x·w + b, b a 1 x Cols row added to every
// row, as one node: the forward is tensor.MatMulBiasInto, and the backward
// writes db = column sums of g, dx = g·wᵀ and dw = xᵀ·g. Forward and
// gradients have the bits of the composition it replaces — the product,
// then the bias added to each row, with each gradient formed in a zeroed
// temporary and added in (TestLinearMatchesComposedOps).
func Linear(x, w, b *Value) *Value {
	t := sameTape(x, w)
	sameTape(x, b)
	out := t.opNode(x.Data.Rows, w.Data.Cols, x.requiresGrad || w.requiresGrad || b.requiresGrad)
	x.Data.MatMulBiasInto(w.Data, b.Data, out.Data)
	out.op, out.srcA, out.srcB, out.srcC = opLinear, x, w, b
	return out
}

// Add returns a+b elementwise.
func Add(a, b *Value) *Value {
	t := sameTape(a, b)
	out := t.opNode(a.Data.Rows, a.Data.Cols, a.requiresGrad || b.requiresGrad)
	a.Data.AddInto(b.Data, out.Data)
	out.op, out.srcA, out.srcB = opAdd, a, b
	return out
}

// Sub returns a-b elementwise.
func Sub(a, b *Value) *Value {
	t := sameTape(a, b)
	out := t.opNode(a.Data.Rows, a.Data.Cols, a.requiresGrad || b.requiresGrad)
	a.Data.SubInto(b.Data, out.Data)
	out.op, out.srcA, out.srcB = opSub, a, b
	return out
}

// Mul returns the elementwise product a∘b.
func Mul(a, b *Value) *Value {
	t := sameTape(a, b)
	out := t.opNode(a.Data.Rows, a.Data.Cols, a.requiresGrad || b.requiresGrad)
	a.Data.MulElemInto(b.Data, out.Data)
	out.back = func() {
		if a.requiresGrad {
			tmp := t.alloc(out.Data.Rows, out.Data.Cols)
			out.Grad.MulElemInto(b.Data, tmp)
			a.accum(tmp)
			t.release(tmp)
		}
		if b.requiresGrad {
			tmp := t.alloc(out.Data.Rows, out.Data.Cols)
			out.Grad.MulElemInto(a.Data, tmp)
			b.accum(tmp)
			t.release(tmp)
		}
	}
	return out
}

// Scale returns s·a.
func Scale(a *Value, s float64) *Value {
	t := a.tape
	out := t.opNode(a.Data.Rows, a.Data.Cols, a.requiresGrad)
	a.Data.ScaleInto(s, out.Data)
	out.op, out.srcA, out.auxS0 = opScale, a, s
	return out
}

// Neg returns -a.
func Neg(a *Value) *Value { return Scale(a, -1) }

// Tanh returns tanh(a) elementwise.
func Tanh(a *Value) *Value {
	t := a.tape
	out := t.opNode(a.Data.Rows, a.Data.Cols, a.requiresGrad)
	a.Data.TanhInto(out.Data)
	out.op, out.srcA = opTanh, a
	return out
}

// Exp returns e^a elementwise.
func Exp(a *Value) *Value {
	t := a.tape
	out := t.opNode(a.Data.Rows, a.Data.Cols, a.requiresGrad)
	a.Data.ApplyInto(math.Exp, out.Data)
	out.back = func() {
		tmp := t.alloc(out.Data.Rows, out.Data.Cols)
		out.Grad.MulElemInto(out.Data, tmp)
		a.accum(tmp)
		t.release(tmp)
	}
	return out
}

// Square returns a² elementwise.
func Square(a *Value) *Value {
	t := a.tape
	out := t.opNode(a.Data.Rows, a.Data.Cols, a.requiresGrad)
	a.Data.ApplyInto(func(x float64) float64 { return x * x }, out.Data)
	out.op, out.srcA = opSquare, a
	return out
}

// Mean returns the 1x1 mean of all elements of a.
func Mean(a *Value) *Value {
	n := len(a.Data.Data)
	if n == 0 {
		panic("autograd: Mean of empty value")
	}
	t := a.tape
	out := t.opNode(1, 1, a.requiresGrad)
	out.Data.Data[0] = a.Data.Mean()
	out.op, out.srcA = opMean, a
	return out
}

// Minimum returns the elementwise minimum of a and b. Where the values tie,
// the gradient flows to a (this matches the PPO convention where ties are
// irrelevant).
func Minimum(a, b *Value) *Value {
	t := sameTape(a, b)
	if !a.Data.SameShape(b.Data) {
		panic(fmt.Sprintf("autograd: Minimum shape mismatch %dx%d vs %dx%d",
			a.Data.Rows, a.Data.Cols, b.Data.Rows, b.Data.Cols))
	}
	out := t.opNode(a.Data.Rows, a.Data.Cols, a.requiresGrad || b.requiresGrad)
	data := out.Data
	// fromA[i] == 1 marks elements taken from a; kept as tape scratch so the
	// backward closure can route gradients without holding heap garbage.
	fromA := t.allocScratch(a.Data.Rows, a.Data.Cols)
	for i := range data.Data {
		if a.Data.Data[i] <= b.Data.Data[i] {
			data.Data[i] = a.Data.Data[i]
			fromA.Data[i] = 1
		} else {
			data.Data[i] = b.Data.Data[i]
		}
	}
	out.op, out.srcA, out.srcB, out.aux0 = opMinimum, a, b, fromA
	return out
}

// Clamp returns a with every element clipped into [lo, hi]. The gradient is
// passed through inside the interval and zero outside (the straight-through
// behaviour PyTorch's clamp has, which PPO's clipped objective relies on).
func Clamp(a *Value, lo, hi float64) *Value {
	t := a.tape
	out := t.opNode(a.Data.Rows, a.Data.Cols, a.requiresGrad)
	data := out.Data
	inside := t.allocScratch(a.Data.Rows, a.Data.Cols)
	for i, x := range a.Data.Data {
		switch {
		case x < lo:
			data.Data[i] = lo
		case x > hi:
			data.Data[i] = hi
		default:
			data.Data[i] = x
			inside.Data[i] = 1
		}
	}
	out.op, out.srcA, out.aux0 = opClamp, a, inside
	return out
}

// SoftmaxRows applies a numerically stable softmax to each row of a.
func SoftmaxRows(a *Value) *Value {
	t := a.tape
	out := t.opNode(a.Data.Rows, a.Data.Cols, a.requiresGrad)
	s := out.Data
	a.Data.SoftmaxRowsInto(s)
	out.back = func() {
		// dx = s ∘ (g - rowdot(g, s))
		tmp := t.alloc(s.Rows, s.Cols)
		for i := 0; i < s.Rows; i++ {
			srow := s.Row(i)
			grow := out.Grad.Row(i)
			dot := 0.0
			for j := range srow {
				dot += srow[j] * grow[j]
			}
			drow := tmp.Row(i)
			for j := range srow {
				drow[j] = srow[j] * (grow[j] - dot)
			}
		}
		a.accum(tmp)
		t.release(tmp)
	}
	return out
}

// LogSoftmaxRows applies a numerically stable log-softmax to each row of a.
func LogSoftmaxRows(a *Value) *Value {
	t := a.tape
	out := t.opNode(a.Data.Rows, a.Data.Cols, a.requiresGrad)
	ls := out.Data
	a.Data.LogSoftmaxRowsInto(ls)
	out.back = func() {
		// dx = g - softmax ∘ rowsum(g)
		tmp := t.alloc(ls.Rows, ls.Cols)
		for i := 0; i < ls.Rows; i++ {
			lrow := ls.Row(i)
			grow := out.Grad.Row(i)
			gsum := 0.0
			for _, g := range grow {
				gsum += g
			}
			drow := tmp.Row(i)
			for j := range lrow {
				drow[j] = grow[j] - math.Exp(lrow[j])*gsum
			}
		}
		a.accum(tmp)
		t.release(tmp)
	}
	return out
}

// PickCols returns an Nx1 column whose i-th entry is a[i, idx[i]].
// It is used to select the log-probability of the action actually taken.
// The tape captures idx without copying; callers must not mutate it until
// after Backward (or the next Reset).
func PickCols(a *Value, idx []int) *Value {
	if len(idx) != a.Data.Rows {
		panic(fmt.Sprintf("autograd: PickCols got %d indices for %d rows", len(idx), a.Data.Rows))
	}
	t := a.tape
	out := t.opNode(a.Data.Rows, 1, a.requiresGrad)
	for i, j := range idx {
		if j < 0 || j >= a.Data.Cols {
			panic(fmt.Sprintf("autograd: PickCols index %d out of range [0,%d)", j, a.Data.Cols))
		}
		out.Data.Data[i] = a.Data.At(i, j)
	}
	out.back = func() {
		tmp := t.alloc(a.Data.Rows, a.Data.Cols)
		for i, j := range idx {
			tmp.Set(i, j, out.Grad.Data[i])
		}
		a.accum(tmp)
		t.release(tmp)
	}
	return out
}

// SumRows returns an Nx1 column of per-row sums.
func SumRows(a *Value) *Value {
	t := a.tape
	out := t.opNode(a.Data.Rows, 1, a.requiresGrad)
	a.Data.SumRowsInto(out.Data)
	out.back = func() {
		tmp := t.alloc(a.Data.Rows, a.Data.Cols)
		for i := 0; i < a.Data.Rows; i++ {
			g := out.Grad.Data[i]
			drow := tmp.Row(i)
			for j := range drow {
				drow[j] = g
			}
		}
		a.accum(tmp)
		t.release(tmp)
	}
	return out
}
