// Package autograd implements a tape-based reverse-mode automatic
// differentiation engine over tensor.Matrix values.
//
// A Tape records every operation in execution order; because operations are
// appended as they run, iterating the tape in reverse is a valid topological
// order for backpropagation. The engine supports exactly the operator set
// needed by the PPO agents in this repository: the fused dense layer,
// pointwise nonlinearities, softmax/log-softmax, the clipped surrogate
// objective (elementwise min and clamp), and scalar reductions.
//
// Typical usage:
//
//	tape := autograd.NewTape()
//	x := tape.Const(batch)                     // input, no gradient
//	w := tape.Param(weights, weightGrads)      // leaf with external grad buffer
//	b := tape.Param(bias, biasGrads)
//	y := autograd.Tanh(autograd.Linear(x, w, b))
//	loss := autograd.Mean(autograd.Square(autograd.Sub(y, target)))
//	loss.Backward()                            // weightGrads now holds dLoss/dW
//
// Hot loops that rebuild the same graph repeatedly (the PPO minibatch
// update) should use a pooled tape instead and Reset it between builds:
//
//	tape := autograd.NewPooledTape(tensor.DefaultPool())
//	for each minibatch {
//		tape.Reset() // recycles nodes and matrices from the previous build
//		... build graph, Backward, read results ...
//	}
//
// A pooled tape draws every forward result, gradient, and backward
// temporary from its tensor.Pool and returns them on Reset, so steady-state
// graph construction allocates nothing.
package autograd

import (
	"fmt"

	"repro/internal/tensor"
)

// Value is a node in the computation graph. Data holds the forward result;
// Grad (lazily allocated) accumulates the gradient of the final scalar output
// with respect to this node.
type Value struct {
	Data *tensor.Matrix
	Grad *tensor.Matrix

	tape         *Tape
	requiresGrad bool
	ownsData     bool // Data came from the tape's pool (op output)
	ownsGrad     bool // Grad came from the tape's pool (not a Param buffer)
	back         func()

	// Closure-free backward state for the hot operators (see backward.go).
	// A per-call `back` closure heap-allocates its capture block, and at
	// ~15 operator applications per PPO minibatch those closures were the
	// last per-update allocation source; the hot ops instead record an
	// opcode plus operands/auxiliary state in these pooled slots and
	// Backward dispatches statically. Reset wipes them with the rest of the
	// struct. Ops off the update hot path still use `back`.
	op                           opcode
	srcA, srcB, srcC             *Value
	aux0, aux1, aux2, aux3, aux4 *tensor.Matrix
	auxS0                        float64
	auxIdx                       []int

	// ties is a ConstTied leaf's list of repeated columns, read by the
	// backward of the Linear it feeds.
	ties []int
}

// Tape records operations for reverse-mode differentiation. A Tape is not
// safe for concurrent use; build one graph per goroutine.
type Tape struct {
	nodes []*Value
	// spare holds recycled Value structs (filled by Reset, drained by node).
	spare []*Value
	// scratch holds pooled matrices used by op internals (selection masks)
	// that must stay live until Backward runs; Reset releases them.
	scratch []*tensor.Matrix
	// pool, when non-nil, supplies and recycles every tape-owned matrix.
	pool *tensor.Pool
}

// NewTape returns an empty, unpooled tape: every node and matrix is freshly
// allocated and left to the garbage collector.
func NewTape() *Tape { return &Tape{} }

// NewPooledTape returns a tape that draws tape-owned matrices (op outputs,
// gradients, backward temporaries) from pool and returns them on Reset.
// Reusing one pooled tape across graph builds makes steady-state graph
// construction allocation-free.
func NewPooledTape(pool *tensor.Pool) *Tape { return &Tape{pool: pool} }

// Len returns the number of recorded nodes (useful in tests).
func (t *Tape) Len() int { return len(t.nodes) }

// Reset discards the recorded graph and recycles its storage: tape-owned
// matrices go back to the pool and node structs are kept for reuse. Leaf
// data (Const/Var/Param) and Param gradient buffers are caller-owned and
// untouched. Any Value or tape-owned matrix from before the Reset must not
// be used afterwards.
func (t *Tape) Reset() {
	for _, v := range t.nodes {
		if t.pool != nil {
			if v.ownsData {
				t.pool.Put(v.Data)
			}
			if v.ownsGrad && v.Grad != nil {
				t.pool.Put(v.Grad)
			}
		}
		*v = Value{}
		t.spare = append(t.spare, v)
	}
	t.nodes = t.nodes[:0]
	if t.pool != nil {
		for _, m := range t.scratch {
			t.pool.Put(m)
		}
	}
	t.scratch = t.scratch[:0]
}

// alloc returns a zeroed rows x cols matrix from the tape's pool (or a fresh
// allocation for unpooled tapes).
func (t *Tape) alloc(rows, cols int) *tensor.Matrix {
	if t.pool != nil {
		return t.pool.Get(rows, cols)
	}
	return tensor.New(rows, cols)
}

// allocUninit is alloc for a caller that writes every element before it
// reads any: a recycled pool buffer keeps its old contents, so the zeroing
// pass is skipped.
func (t *Tape) allocUninit(rows, cols int) *tensor.Matrix {
	if t.pool != nil {
		return t.pool.GetUninit(rows, cols)
	}
	return tensor.New(rows, cols)
}

// release returns a matrix obtained from alloc once no live node references
// it (backward temporaries). Unpooled tapes leave it to the GC.
func (t *Tape) release(m *tensor.Matrix) {
	if t.pool != nil {
		t.pool.Put(m)
	}
}

// allocScratch returns a pooled matrix that stays live until Reset — used by
// ops that capture auxiliary state (selection masks) in backward closures.
func (t *Tape) allocScratch(rows, cols int) *tensor.Matrix {
	m := t.alloc(rows, cols)
	t.scratch = append(t.scratch, m)
	return m
}

// node registers a value on the tape, recycling a spare Value struct when
// one is available. ownsData marks data as tape-owned (recycled on Reset).
func (t *Tape) node(data *tensor.Matrix, requiresGrad, ownsData bool, back func()) *Value {
	var v *Value
	if n := len(t.spare); n > 0 {
		v = t.spare[n-1]
		t.spare[n-1] = nil
		t.spare = t.spare[:n-1]
	} else {
		v = new(Value)
	}
	v.Data, v.tape, v.requiresGrad, v.ownsData, v.back = data, t, requiresGrad, ownsData, back
	t.nodes = append(t.nodes, v)
	return v
}

// opNode allocates a tape-owned output matrix and registers it; the common
// entry point for operator forward passes. Every operator writes its whole
// output, so the matrix comes uninitialised.
func (t *Tape) opNode(rows, cols int, requiresGrad bool) *Value {
	return t.node(t.allocUninit(rows, cols), requiresGrad, true, nil)
}

// Const registers data as a constant leaf: no gradient is computed for it.
// The matrix is NOT copied; callers must not mutate it while the tape is live.
func (t *Tape) Const(data *tensor.Matrix) *Value {
	return t.node(data, false, false, nil)
}

// ConstTied is Const for data whose columns repeat: ties lists, ascending,
// each column i that holds the bits of column i−1 in every row (see
// tensor.NarrowTies). A Linear fed by it computes its weight gradient
// through tensor.MatMulTransATiedInto, which copies the tied rows instead of
// recomputing them, with the same bits. Neither data nor ties is copied;
// the caller must not change either while the tape is live.
func (t *Tape) ConstTied(data *tensor.Matrix, ties []int) *Value {
	v := t.node(data, false, false, nil)
	v.ties = ties
	return v
}

// Var registers data as a differentiable leaf whose gradient is allocated
// internally (read it from Value.Grad after Backward and before any Reset).
func (t *Tape) Var(data *tensor.Matrix) *Value {
	return t.node(data, true, false, nil)
}

// Param registers data as a differentiable leaf whose gradient accumulates
// into the caller-provided buffer grad (shape must match). This lets
// optimizers own their gradient storage across steps; Reset never recycles
// a Param's gradient buffer.
//
// Which path a Linear backward takes depends on the buffer, checked when
// that backward runs: if every element is +0 — a fresh nn.NewParameter,
// and after nn.ZeroGrads or Adam.Step, which clear it — the weight and bias
// gradients are written straight into grad; otherwise (a second Backward
// with no step in between, or any other contents) each goes through a
// temporary that is then added, as the composed ops did. Both paths leave
// the same bits: a product summed from +0 is never -0, so +0 + product is
// the product.
func (t *Tape) Param(data, grad *tensor.Matrix) *Value {
	if !data.SameShape(grad) {
		panic(fmt.Sprintf("autograd: Param grad shape %dx%d != data shape %dx%d",
			grad.Rows, grad.Cols, data.Rows, data.Cols))
	}
	v := t.node(data, true, false, nil)
	v.Grad = grad
	return v
}

// ensureGrad allocates the gradient buffer if needed and returns it.
func (v *Value) ensureGrad() *tensor.Matrix {
	if v.Grad == nil {
		v.Grad = v.tape.alloc(v.Data.Rows, v.Data.Cols)
		v.ownsGrad = true
	}
	return v.Grad
}

// freshGrad allocates v's gradient buffer uninitialised, for a caller that
// is about to write all of it.
func (v *Value) freshGrad() *tensor.Matrix {
	v.Grad = v.tape.allocUninit(v.Data.Rows, v.Data.Cols)
	v.ownsGrad = true
	return v.Grad
}

// accum adds delta into v's gradient if v participates in differentiation.
func (v *Value) accum(delta *tensor.Matrix) { v.accumScaled(delta, 1) }

// accumScaled adds s*delta into v's gradient if v participates. A first
// contribution is written as +0 + s*delta, the bits of adding it to a
// zeroed buffer, without the zeroing pass.
func (v *Value) accumScaled(delta *tensor.Matrix, s float64) {
	if !v.requiresGrad {
		return
	}
	if v.Grad == nil {
		v.freshGrad().SetScaled(delta, s)
		return
	}
	if s == 1 {
		v.Grad.AddInPlace(delta)
		return
	}
	v.Grad.AddScaledInPlace(delta, s)
}

// productTarget returns where a gradient term summed from +0 — a product or
// a column sum, which is never -0 — is written for v: v's gradient buffer
// itself when it is fresh or holds only +0, because +0 + term is then the
// term's bits; otherwise a temporary, which addProduct adds in and releases.
func (v *Value) productTarget() *tensor.Matrix {
	switch {
	case v.Grad == nil:
		return v.freshGrad()
	case v.Grad.AllPositiveZero():
		return v.Grad
	}
	return v.tape.allocUninit(v.Data.Rows, v.Data.Cols)
}

// addProduct completes productTarget: a temporary is added into v's
// gradient and released.
func (v *Value) addProduct(term *tensor.Matrix) {
	if term != v.Grad {
		v.Grad.AddInPlace(term)
		v.tape.release(term)
	}
}

// Item returns the sole element of a 1x1 value. It panics otherwise.
func (v *Value) Item() float64 {
	if v.Data.Rows != 1 || v.Data.Cols != 1 {
		panic(fmt.Sprintf("autograd: Item on %dx%d value", v.Data.Rows, v.Data.Cols))
	}
	return v.Data.Data[0]
}

// Backward runs reverse-mode differentiation from v, which must be a 1x1
// scalar. Gradients accumulate into every reachable leaf (Var/Param).
func (v *Value) Backward() {
	if v.Data.Rows != 1 || v.Data.Cols != 1 {
		panic(fmt.Sprintf("autograd: Backward on non-scalar %dx%d value", v.Data.Rows, v.Data.Cols))
	}
	v.ensureGrad().Data[0] += 1
	t := v.tape
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.Grad == nil || !n.requiresGrad {
			continue
		}
		if n.op != opNone {
			opBackward(n)
		} else if n.back != nil {
			n.back()
		}
	}
}

func sameTape(a, b *Value) *Tape {
	if a.tape != b.tape {
		panic("autograd: operands from different tapes")
	}
	return a.tape
}
