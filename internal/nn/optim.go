package nn

import (
	"math"

	"repro/internal/tensor"
)

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	params   []*Parameter
	LR       float64
	Momentum float64
	velocity []*tensor.Matrix
}

// NewSGD returns an SGD optimizer over m's parameters.
func NewSGD(m Module, lr, momentum float64) *SGD {
	ps := m.Params()
	vel := make([]*tensor.Matrix, len(ps))
	for i, p := range ps {
		vel[i] = tensor.New(p.Data.Rows, p.Data.Cols)
	}
	return &SGD{params: ps, LR: lr, Momentum: momentum, velocity: vel}
}

// Step applies one SGD update and clears the consumed gradients.
func (o *SGD) Step() {
	for i, p := range o.params {
		v := o.velocity[i]
		if o.Momentum != 0 {
			v.ScaleInPlace(o.Momentum).AddScaledInPlace(p.Grad, 1)
			p.Data.AddScaledInPlace(v, -o.LR)
		} else {
			p.Data.AddScaledInPlace(p.Grad, -o.LR)
		}
		p.ZeroGrad()
	}
}

// ZeroGrad clears all gradients.
func (o *SGD) ZeroGrad() {
	for _, p := range o.params {
		p.ZeroGrad()
	}
}

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
}

// NewAdam returns an Adam optimizer with standard betas (0.9, 0.999).
func NewAdam(mod Module, lr float64) *Adam {
	ps := mod.Params()
	a := &Adam{params: ps, LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	a.m = make([]*tensor.Matrix, len(ps))
	a.v = make([]*tensor.Matrix, len(ps))
	for i, p := range ps {
		a.m[i] = tensor.New(p.Data.Rows, p.Data.Cols)
		a.v[i] = tensor.New(p.Data.Rows, p.Data.Cols)
	}
	return a
}

// Step applies one Adam update from current gradients and clears them in
// the same pass (tensor.AdamUpdate consumes the gradient, saving the
// per-minibatch ZeroGrads sweep). The element-wise rule lives in
// tensor.AdamUpdate so it can use the SIMD fast path; the update is bitwise
// identical to the historical per-element loop here.
func (a *Adam) Step() {
	a.step++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, p := range a.params {
		tensor.AdamUpdate(p.Data.Data, p.Grad.Data, a.m[i].Data, a.v[i].Data, a.LR, a.Beta1, a.Beta2, a.Eps, bc1, bc2)
	}
}

// ZeroGrad clears all gradients.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		p.ZeroGrad()
	}
}

// Reset clears the optimizer's moment estimates and step count, e.g. after
// parameters are overwritten by a federated aggregation round.
func (a *Adam) Reset() {
	a.step = 0
	for i := range a.m {
		a.m[i].Zero()
		a.v[i].Zero()
	}
}
