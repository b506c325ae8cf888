package autograd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// x86DefaultNaN is the one NaN the operands carry, the pattern the FPU
// itself produces (Inf-Inf, 0*Inf): with a single NaN in play the outputs
// compare bit for bit (see tensor's SIMD pins).
var x86DefaultNaN = math.Float64frombits(0xFFF8000000000000)

// fillClasses fills data from the operand classes of tensor's SIMD pins:
// ±0, ±1, subnormals and ordinary values, plus — with specials — ±Inf and
// the default NaN at a few positions.
func fillClasses(rng *rand.Rand, data []float64, specials bool) {
	for i := range data {
		switch rng.Intn(12) {
		case 0:
			data[i] = 0
		case 1:
			data[i] = math.Copysign(0, -1)
		case 2:
			data[i] = 5e-324 * float64(1+rng.Intn(100))
		case 3:
			data[i] = -1
		case 4:
			data[i] = 1
		default:
			data[i] = rng.NormFloat64()
		}
	}
	if specials {
		for _, v := range []float64{math.Inf(1), math.Inf(-1), x86DefaultNaN} {
			data[rng.Intn(len(data))] = v
		}
	}
}

// fillObservation fills a state batch the way cloudsim writes one: per
// 64-wide slot a prefix of progress values and idle zeros, then a run of -1
// void markers.
func fillObservation(rng *rand.Rand, data []float64) {
	for start := 0; start < len(data); start += 64 {
		slot := data[start:min(start+64, len(data))]
		present := rng.Intn(len(slot) + 1)
		for i := range slot {
			switch {
			case i >= present:
				slot[i] = -1
			case rng.Intn(4) == 0:
				slot[i] = 0
			default:
				slot[i] = 1 - rng.Float64()
			}
		}
	}
}

// composedLinear is the reference Linear replaced: the forward as MatMulInto
// then AddRowBroadcastInto, and the backward of AddRow(MatMul(x, w), b) given
// the gradient g reaching the layer's output, each gradient formed in a
// zeroed temporary and added into a copy of grads (x's, w's, b's; a nil
// entry is a fresh buffer, which the composition zeroed before the add).
// The bias gradient is the plain column-sum loop.
func composedLinear(x, w, b, g *tensor.Matrix, grads [3]*tensor.Matrix) (out *tensor.Matrix, dx, dw, db *tensor.Matrix) {
	out = x.MatMulInto(w, tensor.New(x.Rows, w.Cols))
	out.AddRowBroadcastInto(b, out)

	accum := func(grad, tmp *tensor.Matrix) *tensor.Matrix {
		if grad == nil {
			return tensor.New(tmp.Rows, tmp.Cols).AddInPlace(tmp)
		}
		return grad.Clone().AddInPlace(tmp)
	}
	colSums := tensor.New(1, g.Cols)
	for i := 0; i < g.Rows; i++ {
		for j, v := range g.Row(i) {
			colSums.Data[j] += v
		}
	}
	db = accum(grads[2], colSums)
	gm := accum(nil, g) // the MatMul node's gradient: +0 + g
	dx = accum(grads[0], gm.MatMulTransBInto(w, tensor.New(x.Rows, x.Cols)))
	dw = accum(grads[1], x.MatMulTransAInto(gm, tensor.New(w.Rows, w.Cols)))
	return out, dx, dw, db
}

// TestLinearMatchesComposedOps pins the fused dense layer to the composition
// it replaced, bit for bit: the forward (the bias epilogue after the last k
// panel, in every column panel) and the x, w and b gradients, with SIMD on
// and off against the scalar reference. Gradient buffers start fresh or at
// +0 (the direct path) or dirty (the temporary path), and the operands come
// from the SIMD pins' classes, with and without ±Inf/NaN.
func TestLinearMatchesComposedOps(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, rows := range []int{1, 17, 63, 64, 65} {
		for _, in := range []int{60, 538, 561} {
			for _, out := range []int{1, 6, 9, 64} {
				for _, specials := range []bool{false, true} {
					x, w := tensor.New(rows, in), tensor.New(in, out)
					b, g := tensor.New(1, out), tensor.New(rows, out)
					if in == 561 {
						fillObservation(rng, x.Data)
					} else {
						fillClasses(rng, x.Data, specials)
					}
					fillClasses(rng, w.Data, specials)
					fillClasses(rng, b.Data, specials)
					fillClasses(rng, g.Data, specials)
					for _, dirty := range []bool{false, true} {
						label := fmt.Sprintf("%dx%dx%d specials=%v dirty=%v", rows, in, out, specials, dirty)
						checkLinearAgainstComposed(t, rng, label, x, w, b, g, dirty)
					}
				}
			}
		}
	}
}

// checkLinearAgainstComposed runs Linear with SIMD off and on, the upstream
// gradient g injected through Sum(Mul(out, g)), and compares every result
// with composedLinear on the scalar kernels. Clean runs take x as a Var and
// w, b as Params with +0 buffers; dirty runs take all three as Params whose
// buffers already hold values.
func checkLinearAgainstComposed(t *testing.T, rng *rand.Rand, label string, x, w, b, g *tensor.Matrix, dirty bool) {
	t.Helper()
	var start [3]*tensor.Matrix
	for i, m := range []*tensor.Matrix{x, w, b} {
		start[i] = tensor.New(m.Rows, m.Cols)
		if dirty {
			fillClasses(rng, start[i].Data, false)
		}
	}
	for _, simd := range []bool{false, true} {
		prev := tensor.SetSIMD(simd)
		tape := NewPooledTape(tensor.DefaultPool())
		grads := [3]*tensor.Matrix{start[0].Clone(), start[1].Clone(), start[2].Clone()}
		var xv *Value
		if dirty {
			xv = tape.Param(x, grads[0])
		} else {
			xv = tape.Var(x)
		}
		out := Linear(xv, tape.Param(w, grads[1]), tape.Param(b, grads[2]))
		Sum(Mul(out, tape.Const(g))).Backward()

		tensor.SetSIMD(false)
		refStart := start
		if !dirty {
			refStart[0] = nil
		}
		wantOut, wantDx, wantDw, wantDb := composedLinear(x, w, b, out.Grad, refStart)
		tensor.SetSIMD(prev)

		at := fmt.Sprintf("%s simd=%v", label, simd)
		requireSameBits(t, at+" forward", wantOut.Data, out.Data.Data)
		requireSameBits(t, at+" dx", wantDx.Data, xv.Grad.Data)
		requireSameBits(t, at+" dw", wantDw.Data, grads[1].Data)
		requireSameBits(t, at+" db", wantDb.Data, grads[2].Data)
		tape.Reset()
	}
}

// TestLinearOverTiedMatchesPlain pins a Linear fed by a ConstTied leaf —
// the update's first layers, over a staged block of a buffer's states — to
// the same Linear over a Const of the block, bit for bit: the forward and
// the w and b gradients, with SIMD off and on, on observation-shaped states
// whose void runs tie columns (with the tie list NarrowTies builds) and on
// the SIMD pins' classes with ±Inf/NaN (with none).
func TestLinearOverTiedMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, rows := range []int{1, 9, 64} {
		for _, in := range []int{40, 136} {
			for _, out := range []int{5, 64} {
				for _, obs := range []bool{false, true} {
					x := tensor.New(rows, in)
					if obs {
						fillObservation(rng, x.Data)
					} else {
						fillClasses(rng, x.Data, true)
					}
					var ties []int
					if obs {
						for c := 1; c < in; c++ {
							ties = append(ties, c)
						}
						for i := range rows {
							ties = tensor.NarrowTies(ties, x.Row(i))
						}
					}
					w, b, g := tensor.New(in, out), tensor.New(1, out), tensor.New(rows, out)
					fillClasses(rng, w.Data, !obs)
					fillClasses(rng, b.Data, !obs)
					fillClasses(rng, g.Data, !obs)
					label := fmt.Sprintf("%dx%dx%d obs=%v ties=%d", rows, in, out, obs, len(ties))
					for _, simd := range []bool{false, true} {
						prev := tensor.SetSIMD(simd)
						var res [2][3]*tensor.Matrix
						for k, leaf := range []func(*Tape) *Value{
							func(tp *Tape) *Value { return tp.Const(x) },
							func(tp *Tape) *Value { return tp.ConstTied(x, ties) },
						} {
							tape := NewPooledTape(tensor.DefaultPool())
							gw, gb := tensor.New(in, out), tensor.New(1, out)
							y := Linear(leaf(tape), tape.Param(w, gw), tape.Param(b, gb))
							Sum(Mul(y, tape.Const(g))).Backward()
							res[k] = [3]*tensor.Matrix{y.Data.Clone(), gw, gb}
							tape.Reset()
						}
						tensor.SetSIMD(prev)
						at := fmt.Sprintf("%s simd=%v", label, simd)
						requireSameBits(t, at+" forward", res[0][0].Data, res[1][0].Data)
						requireSameBits(t, at+" dw", res[0][1].Data, res[1][1].Data)
						requireSameBits(t, at+" db", res[0][2].Data, res[1][2].Data)
					}
				}
			}
		}
	}
}
