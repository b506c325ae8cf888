package rl

import (
	"math/rand"
	"testing"

	"repro/internal/autograd"
	"repro/internal/tensor"
)

func TestValueLossPlainMatchesMSE(t *testing.T) {
	tape := autograd.NewTape()
	pred := tape.Const(tensor.ColVector([]float64{1, 2, 3}))
	target := tape.Const(tensor.ColVector([]float64{2, 2, 5}))
	got := valueLoss(pred, target).Item()
	want := (1.0 + 0 + 4) / 3
	if got != want {
		t.Fatalf("plain value loss %v, want %v", got, want)
	}
}

func TestValueLossGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	predM := tensor.RandNormal(rng, 4, 1, 0, 1)
	targetM := tensor.RandNormal(rng, 4, 1, 0, 1)
	build := func(tp *autograd.Tape, x *autograd.Value) *autograd.Value {
		return valueLoss(x, tp.Const(targetM))
	}
	tape := autograd.NewTape()
	x := tape.Var(predM)
	build(tape, x).Backward()
	analytic := x.Grad.Clone()
	numeric := autograd.NumericGrad(predM, 1e-6, func() float64 {
		tp := autograd.NewTape()
		return build(tp, tp.Const(predM)).Item()
	})
	if err := autograd.MaxGradError(analytic, numeric); err > 1e-5 {
		t.Fatalf("value loss gradient error %v", err)
	}
}

func TestApproxKLReported(t *testing.T) {
	agent := NewPPO(DefaultConfig(4, 3), rand.New(rand.NewSource(4)))
	var buf Buffer
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 32; i++ {
		s := make([]float64, 4)
		for j := range s {
			s[j] = rng.NormFloat64()
		}
		buf.Add(Transition{State: s, Action: rng.Intn(3), Reward: 1, LogProb: -1.1, Done: i == 31})
	}
	stats := agent.Update(&buf)
	if stats.ApproxKL == 0 {
		t.Fatal("ApproxKL should be reported")
	}
}
