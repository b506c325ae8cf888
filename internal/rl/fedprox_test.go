package rl

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
)

func paramDistance(m nn.Module, ref []float64) float64 {
	flat := nn.FlattenParams(m)
	d := 0.0
	for i := range flat {
		d += (flat[i] - ref[i]) * (flat[i] - ref[i])
	}
	return math.Sqrt(d)
}

func TestProximalApplyAddsGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := nn.NewMLP(rng, "m", []int{2, 2}, nn.ActTanh, 1.0)
	var px Proximal
	px.Mu = 0.5
	px.SetRef(m)
	// Move a parameter away from the reference; the prox gradient must
	// point back toward it with slope μ.
	p := m.Params()[0]
	p.Data.Data[0] += 2
	nn.ZeroGrads(m)
	px.Apply(m)
	if math.Abs(p.Grad.Data[0]-0.5*2) > 1e-12 {
		t.Fatalf("prox gradient %v, want 1", p.Grad.Data[0])
	}
	// Mu = 0 disables.
	nn.ZeroGrads(m)
	px.Mu = 0
	px.Apply(m)
	if p.Grad.Data[0] != 0 {
		t.Fatal("mu=0 should be a no-op")
	}
	// Unknown module untouched.
	other := nn.NewMLP(rng, "o", []int{2, 2}, nn.ActTanh, 1.0)
	px.Mu = 0.5
	nn.ZeroGrads(other)
	px.Apply(other)
	for _, pp := range other.Params() {
		if pp.Grad != nil {
			t.Fatal("module without reference should be untouched: it borrowed gradient storage")
		}
	}
}

func TestProximalDampsDrift(t *testing.T) {
	// Two identical agents train on the same trajectories; the FedProx one
	// must stay closer to its initial (reference) parameters.
	build := func(seed int64) (*PPO, *Buffer) {
		rng := rand.New(rand.NewSource(seed))
		a := NewPPO(DefaultConfig(6, 3), rng)
		var buf Buffer
		dataRng := rand.New(rand.NewSource(99))
		for i := 0; i < 64; i++ {
			s := make([]float64, 6)
			for j := range s {
				s[j] = dataRng.NormFloat64()
			}
			buf.Add(Transition{State: s, Action: dataRng.Intn(3),
				Reward: dataRng.NormFloat64(), LogProb: -1.1, Done: i == 63})
		}
		return a, &buf
	}
	free, buf := build(5)
	anchored, _ := build(5)
	refFree := nn.FlattenParams(free.Actor)
	refAnchored := nn.FlattenParams(anchored.Actor)
	anchored.EnableProximal(10)
	for i := 0; i < 10; i++ {
		free.Update(buf)
		anchored.Update(buf)
	}
	dFree := paramDistance(free.Actor, refFree)
	dAnchored := paramDistance(anchored.Actor, refAnchored)
	if dAnchored >= dFree {
		t.Fatalf("proximal should damp drift: anchored %v vs free %v", dAnchored, dFree)
	}
}
