package rl

import "repro/internal/nn"

// Proximal adds FedProx-style regularization (Li et al., MLSys 2020) to a
// PPO client: local updates additionally minimize μ/2·‖w − w_ref‖², pulling
// the model toward the last global model and damping client drift in
// heterogeneous federations. It is the classic FL heterogeneity mitigation
// the paper's related work contrasts with personalization, included here as
// an extension baseline.
type Proximal struct {
	// Mu is the proximal coefficient (0 disables the term).
	Mu float64
	// ref maps each regularized module to its reference (global) flat
	// parameter vector.
	ref map[nn.Module][]float64
}

// SetRef captures the given modules' current parameters as the proximal
// reference point. Call after installing a global model.
func (px *Proximal) SetRef(modules ...nn.Module) {
	px.ref = make(map[nn.Module][]float64, len(modules))
	for _, m := range modules {
		px.ref[m] = nn.FlattenParams(m)
	}
}

// Apply adds μ(w − w_ref) — the gradient of the proximal term — to the
// module's accumulated gradients, borrowing storage for a parameter that
// holds none. Modules without a captured reference are left untouched, as
// is everything when Mu is 0.
func (px *Proximal) Apply(m nn.Module) {
	if px.Mu == 0 {
		return
	}
	ref, ok := px.ref[m]
	if !ok {
		return
	}
	off := 0
	for _, p := range m.Params() {
		n := p.NumElems()
		g := p.Gradient().Data
		for i := 0; i < n; i++ {
			g[i] += px.Mu * (p.Data.Data[i] - ref[off+i])
		}
		off += n
	}
}

// EnableProximal turns on FedProx regularization for this agent with the
// given μ and captures the current parameters as the initial reference.
func (p *PPO) EnableProximal(mu float64) {
	p.prox.Mu = mu
	p.prox.SetRef(p.Actor, p.Critic)
}
