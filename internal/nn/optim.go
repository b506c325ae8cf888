package nn

import (
	"math"

	"repro/internal/tensor"
)

// Adam implements the Adam optimizer (Kingma & Ba 2015) with bias
// correction — the optimizer used for both the actor and critic networks in
// the paper (actor lr 3e-4, critic lr 1e-4).
type Adam struct {
	params []*Parameter
	LR     float64
	Beta1  float64
	Beta2  float64
	Eps    float64

	step int
	m    []*tensor.Matrix
	v    []*tensor.Matrix
	// tied is tensor.AdamUpdateRows' step scratch, one row of the widest
	// parameter.
	tied []float64
}

// NewAdam returns an Adam optimizer with standard betas (0.9, 0.999).
func NewAdam(mod Module, lr float64) *Adam {
	ps := mod.Params()
	a := &Adam{params: ps, LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	a.m = make([]*tensor.Matrix, len(ps))
	a.v = make([]*tensor.Matrix, len(ps))
	cols := 0
	for i, p := range ps {
		a.m[i] = tensor.New(p.Data.Rows, p.Data.Cols)
		a.v[i] = tensor.New(p.Data.Rows, p.Data.Cols)
		cols = max(cols, p.Data.Cols)
	}
	a.tied = make([]float64, cols)
	return a
}

// Step applies one Adam update from current gradients and clears them in
// the same pass: StepScaled at scale 1.
func (a *Adam) Step() { a.StepScaled(1) }

// StepScaled applies one Adam update from current gradients multiplied by
// scale — the clip factor ClipGradNorm returns, applied as each gradient is
// loaded, so a clipped step makes no rescaling pass — and clears them in
// the same pass (the kernel consumes the gradient, saving the per-minibatch
// ZeroGrads sweep). The element-wise rule lives in tensor.AdamUpdateRows so
// it can use the SIMD fast path and step a run of tied rows once — a
// padded first layer's, whose gradients, m and v repeat row to row (m and v
// start tied at zero, here and after Reset); the update is bitwise
// identical to the historical per-element loop here over gradients
// rescaled in place. A parameter without gradient storage steps on a
// borrowed one of +0, which it keeps.
func (a *Adam) StepScaled(scale float64) {
	a.step++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, p := range a.params {
		tensor.AdamUpdateRows(p.Data.Data, p.Gradient().Data, a.m[i].Data, a.v[i].Data, a.tied, p.Data.Cols, a.LR, a.Beta1, a.Beta2, a.Eps, bc1, bc2, scale)
		p.writes++
	}
}

// ZeroGrad clears all gradients.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		p.ZeroGrad()
	}
}

// Reset clears the optimizer's moment estimates and step count, e.g. after
// parameters are overwritten by a federated aggregation round. The
// parameters' Generation is not rewound.
func (a *Adam) Reset() {
	a.step = 0
	for i := range a.m {
		a.m[i].Zero()
		a.v[i].Zero()
	}
}
