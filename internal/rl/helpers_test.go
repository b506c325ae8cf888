package rl

import (
	"repro/internal/autograd"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Thin aliases so the main test file reads cleanly.

type tensorMatrix = tensor.Matrix

func tensorRowVector(v []float64) *tensorMatrix { return tensor.FromSlice(1, len(v), v) }

func nnCopy(dst, src nn.Module) error { return nn.CopyParams(dst, src) }

// valueOf is agent's estimate of one state.
func valueOf(agent Agent, state []float64) float64 {
	var v [1]float64
	agent.Estimator().Values(v[:], tensorRowVector(state))
	return v[0]
}

// trainCriticStep accumulates one MSE gradient of critic vs. buffer returns.
func trainCriticStep(critic *nn.MLP, buf *Buffer) {
	returns := buf.Returns(0.99)
	states := tensor.New(buf.Len(), buf.width())
	target := tensor.New(buf.Len(), 1)
	for i := range buf.Len() {
		buf.State(i, states.Row(i))
		target.Data[i] = returns[i]
	}
	tape := new(autograd.Tape)
	v := critic.Forward(tape, tape.Const(states))
	autograd.Mean(autograd.Square(autograd.Sub(v, tape.Const(target)))).Backward()
}
