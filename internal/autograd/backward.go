package autograd

import "math"

// opcode identifies a hot operator whose backward pass runs through the
// static opBackward dispatch instead of a heap-allocated closure. Every case
// transcribes the corresponding historical closure body verbatim, so the
// dispatch change is invisible to the numerics (the gradcheck suite and the
// rl package's golden update tests pin this).
type opcode uint8

const (
	opNone opcode = iota
	opLinear
	opAdd
	opSub
	opScale
	opTanh
	opSquare
	opMean
	opMinimum
	opClamp
	opSurrogate
)

func opBackward(n *Value) {
	t := n.tape
	switch n.op {
	case opLinear:
		linearBackward(n)
	case opAdd:
		n.srcA.accum(n.Grad)
		n.srcB.accum(n.Grad)
	case opSub:
		n.srcA.accum(n.Grad)
		n.srcB.accumScaled(n.Grad, -1)
	case opScale:
		n.srcA.accumScaled(n.Grad, n.auxS0)
	case opTanh:
		// d tanh = 1 - tanh²; fused into one accumulation pass (bitwise
		// identical to the ApplyInto + MulElemInto + accum it replaces).
		if a := n.srcA; a.requiresGrad {
			a.ensureGrad().AddTanhGradInPlace(n.Grad, n.Data)
		}
	case opSquare:
		a := n.srcA
		tmp := t.allocUninit(n.Data.Rows, n.Data.Cols)
		n.Grad.MulElemInto(a.Data, tmp)
		a.accumScaled(tmp, 2)
		t.release(tmp)
	case opMean:
		a := n.srcA
		tmp := t.allocUninit(a.Data.Rows, a.Data.Cols)
		tmp.Fill(n.Grad.Data[0] / float64(len(a.Data.Data)))
		a.accum(tmp)
		t.release(tmp)
	case opMinimum:
		a, b := n.srcA, n.srcB
		fromA := n.aux0
		da := t.alloc(n.Data.Rows, n.Data.Cols)
		db := t.alloc(n.Data.Rows, n.Data.Cols)
		for i, fa := range fromA.Data {
			if fa == 1 {
				da.Data[i] = n.Grad.Data[i]
			} else {
				db.Data[i] = n.Grad.Data[i]
			}
		}
		a.accum(da)
		b.accum(db)
		t.release(da)
		t.release(db)
	case opClamp:
		inside := n.aux0
		tmp := t.alloc(n.Data.Rows, n.Data.Cols)
		for i, in := range inside.Data {
			if in == 1 {
				tmp.Data[i] = n.Grad.Data[i]
			}
		}
		n.srcA.accum(tmp)
		t.release(tmp)
	case opSurrogate:
		surrogateBackward(n)
	}
}

// linearBackward is Linear's backward, in the order the composed
// AddRow(MatMul(x, w), b) ran it: the bias, then x, then w. Each gradient is
// a sum started at +0 (tensor.SumColsInto, MatMulTransBInto,
// MatMulTransAInto), written straight into its buffer when productTarget
// allows. The composition's products read the MatMul node's gradient,
// +0 + g, where this reads g: they differ only where g is -0, and a ±0
// operand adds a ±0 term to a sum that is never -0, which leaves it as it
// was either way.
func linearBackward(n *Value) {
	x, w, b := n.srcA, n.srcB, n.srcC
	g := n.Grad
	if b.requiresGrad {
		db := b.productTarget()
		g.SumColsInto(db)
		b.addProduct(db)
	}
	if x.requiresGrad {
		dx := x.productTarget()
		g.MatMulTransBInto(w.Data, dx)
		x.addProduct(dx)
	}
	if w.requiresGrad {
		dw := w.productTarget()
		x.Data.MatMulTransAInto(g, dw)
		w.addProduct(dw)
	}
}

// surrogateBackward is the two-phase backward of ClippedSurrogateLoss; see
// fused.go for the derivation and the slot layout.
func surrogateBackward(out *Value) {
	t := out.tape
	logits := out.srcA
	logp, probs, ratio, masks, advantage := out.aux0, out.aux1, out.aux2, out.aux3, out.aux4
	actions := out.auxIdx
	entCoef := out.auxS0
	n, a := logp.Rows, logp.Cols

	g := out.Grad.Data[0]
	// Scalar grad chain down both branches of the loss, with the composed
	// ops' 0+x accumulation-onto-zeroed-buffer steps kept explicit (they
	// matter only for signed zeros, but exactness is the whole point here).
	noG := 0 + g             // Neg(objective) node
	scG := 0 + -1*g          // Scale(entropy, entCoef) node
	neG := 0 + entCoef*scG   // entropy node
	meG := 0 + -1*neG        // Mean(SumRows(...)) node
	fill := meG / float64(n) // grad broadcast by Mean's backward
	muG := 0 + (0 + fill)    // through SumRows then into Mul(probs, logp)
	objG := 0 + -1*noG
	mFill := objG / float64(n)
	minvG := 0 + mFill

	rowG := t.allocUninit(1, a)
	grow := rowG.Data

	// Phase A: the SoftmaxRows backward of the entropy product — the first
	// accumulation into logits.Grad in the composed graph.
	dA := t.allocUninit(n, a)
	for i := 0; i < n; i++ {
		lrow := logp.Data[i*a : (i+1)*a]
		prow := probs.Data[i*a : (i+1)*a]
		for j := range grow {
			grow[j] = 0 + muG*lrow[j]
		}
		dot := 0.0
		for j := range prow {
			dot += prow[j] * grow[j]
		}
		drow := dA.Data[i*a : (i+1)*a]
		for j := range drow {
			drow[j] = prow[j] * (grow[j] - dot)
		}
	}
	logits.accum(dA)
	t.release(dA)

	// Phase B: the LogSoftmaxRows backward over logp's combined gradient —
	// entropy product plus the picked-action surrogate chain.
	dB := t.allocUninit(n, a)
	for i := 0; i < n; i++ {
		mask := int(masks.Data[i])
		var m1g, m2g float64
		if mask&surrogateFromA != 0 {
			m1g = 0 + minvG
		} else {
			m2g = 0 + minvG
		}
		clG := 0 + m2g*advantage.Data[i]
		clPass := 0.0
		if mask&surrogateInside != 0 {
			clPass = clG
		}
		ratioG := (0 + clPass) + m1g*advantage.Data[i]
		sbG := 0 + ratioG*ratio.Data[i]
		pickG := 0 + sbG

		lrow := logp.Data[i*a : (i+1)*a]
		prow := probs.Data[i*a : (i+1)*a]
		for j := range grow {
			grow[j] = (0 + muG*prow[j]) + 0
		}
		ai := actions[i]
		grow[ai] = (0 + muG*prow[ai]) + pickG
		gsum := 0.0
		for _, gv := range grow {
			gsum += gv
		}
		drow := dB.Data[i*a : (i+1)*a]
		for j := range drow {
			drow[j] = grow[j] - math.Exp(lrow[j])*gsum
		}
	}
	logits.accum(dB)
	t.release(dB)
	t.release(rowG)
}
