package rl

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// inferScratch holds the per-agent buffers behind the zero-allocation
// rollout fast path. Every SelectAction/GreedyAction/Value call funnels one
// state through these reusable matrices and the reusable Categorical instead
// of allocating fresh ones, so a steady-state rollout step allocates nothing
// (asserted by TestRolloutStepZeroAlloc and BenchmarkRolloutStep).
//
// Buffers are lazily sized on first use, so agents built through any path —
// NewPPO, NewDualCriticPPO, or deserialization — need no extra setup. The
// scratch is owned by exactly one agent and makes the agent's inference
// methods non-reentrant: one goroutine per agent, which is already the
// contract everywhere in this repo (each federated client owns its agent).
type inferScratch struct {
	state  *tensor.Matrix // 1 x StateDim staging row
	logits *tensor.Matrix // 1 x NumActions actor head output
	value  *tensor.Matrix // 1 x 1 critic output
	value2 *tensor.Matrix // 1 x 1 public critic output
	dist   nn.Categorical
}

// setState copies state into the persistent 1xN staging row and returns it.
func (s *inferScratch) setState(state []float64) *tensor.Matrix {
	if s.state == nil || s.state.Cols != len(state) {
		s.state = tensor.New(1, len(state))
	}
	copy(s.state.Data, state)
	return s.state
}

func (s *inferScratch) logitsBuf(n int) *tensor.Matrix {
	if s.logits == nil || s.logits.Cols != n {
		s.logits = tensor.New(1, n)
	}
	return s.logits
}

func (s *inferScratch) valueBuf() *tensor.Matrix {
	if s.value == nil {
		s.value = tensor.New(1, 1)
	}
	return s.value
}

func (s *inferScratch) value2Buf() *tensor.Matrix {
	if s.value2 == nil {
		s.value2 = tensor.New(1, 1)
	}
	return s.value2
}

// policyDist refreshes the reusable categorical from the actor's logits for
// the given state and returns it. This is the shared core of
// SelectAction/GreedyAction.
func (s *inferScratch) policyDist(actor *nn.MLP, state []float64, numActions int, mask []bool) *nn.Categorical {
	x := s.setState(state)
	logits := actor.Infer(s.logitsBuf(numActions), x)
	s.dist.SetLogits(logits.Row(0), mask)
	return &s.dist
}
