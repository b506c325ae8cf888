package rl

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// inferScratch holds the per-agent buffers behind the zero-allocation
// decision path. Every SelectAction/GreedyAction call runs the actor on a
// 1×StateDim view of the caller's state (Infer never writes its input, so
// nothing is staged) into a reusable logits row and the reusable
// Categorical, so a steady-state rollout step allocates nothing (asserted
// by TestRolloutStepZeroAlloc and BenchmarkRolloutStep).
//
// Buffers are lazily sized on first use, so agents built through any path —
// NewPPO, NewDualCriticPPO, or deserialization — need no extra setup. The
// scratch is owned by exactly one agent and makes the agent's decision
// methods non-reentrant: one goroutine per agent, which is already the
// contract everywhere in this repo (each federated client owns its agent).
// The critics run on valueScratch, which is separate so that an episode's
// value lane may run them while the rollout decides.
type inferScratch struct {
	state  tensor.Matrix  // 1 x StateDim view of the state being decided on
	logits *tensor.Matrix // 1 x NumActions actor head output
	dist   nn.Categorical
}

// rowView sets view to the 1×len(state) matrix over state and returns it.
func rowView(view *tensor.Matrix, state []float64) *tensor.Matrix {
	*view = tensor.Matrix{Rows: 1, Cols: len(state), Data: state}
	return view
}

func (s *inferScratch) logitsBuf(n int) *tensor.Matrix {
	if s.logits == nil || s.logits.Cols != n {
		s.logits = tensor.New(1, n)
	}
	return s.logits
}

// policyDist refreshes the reusable categorical from the actor's logits for
// the given state and returns it. This is the shared core of
// SelectAction/GreedyAction.
func (s *inferScratch) policyDist(actor *nn.MLP, state []float64, numActions int, mask []bool) *nn.Categorical {
	logits := actor.Infer(s.logitsBuf(numActions), rowView(&s.state, state))
	s.dist.SetLogits(logits.Row(0), mask)
	return &s.dist
}

// valueScratch is PPO's ValueEstimator: the critics and α as Estimator
// found them, and the matrix headers and ψ output Values runs on.
type valueScratch struct {
	critic, public *nn.MLP
	alpha          float64

	v, vp tensor.Matrix // views of dst and of psi for one block
	psi   []float64     // ψ's estimates before the blend
}

// Values writes V(s) of every row of states into dst: V_φ for a plain
// agent, α·V_φ + (1−α)·V_ψ (Eq. 14) with a public critic. A row's estimate
// does not depend on the rows beside it (MLP.Infer's kernels treat rows
// independently), so it carries the bits of a one-row call.
func (e *valueScratch) Values(dst []float64, states *tensor.Matrix) {
	n := states.Rows
	e.v = tensor.Matrix{Rows: n, Cols: 1, Data: dst[:n]}
	e.critic.Infer(&e.v, states)
	if e.public == nil {
		return
	}
	if cap(e.psi) < n {
		e.psi = make([]float64, n)
	}
	e.vp = tensor.Matrix{Rows: n, Cols: 1, Data: e.psi[:n]}
	e.public.Infer(&e.vp, states)
	for i, vp := range e.vp.Data {
		dst[i] = e.alpha*dst[i] + (1-e.alpha)*vp
	}
}
