package rl

import (
	"math/rand"
	"testing"
)

// toyEnv is a minimal rl.Environment: a contextual bandit where the state
// one-hot encodes the rewarded action. It proves the agents and rollout
// loops work against any Environment, not just cloudsim, and gives a fast,
// noise-free learning check.
type toyEnv struct {
	rng     *rand.Rand
	actions int
	horizon int

	step   int
	target int
}

func newToyEnv(seed int64, actions, horizon int) *toyEnv {
	e := &toyEnv{rng: rand.New(rand.NewSource(seed)), actions: actions, horizon: horizon}
	e.reset()
	return e
}

func (e *toyEnv) reset() {
	e.step = 0
	e.target = e.rng.Intn(e.actions)
}

func (e *toyEnv) Observe(dst []float64) []float64 {
	if cap(dst) < e.actions {
		dst = make([]float64, e.actions)
	}
	dst = dst[:e.actions]
	for i := range dst {
		dst[i] = 0
	}
	dst[e.target] = 1
	return dst
}

func (e *toyEnv) Step(action int) float64 {
	r := -1.0
	if action == e.target {
		r = 1.0
	}
	e.step++
	e.target = e.rng.Intn(e.actions)
	return r
}

func (e *toyEnv) Done() bool      { return e.step >= e.horizon }
func (e *toyEnv) StateDim() int   { return e.actions }
func (e *toyEnv) NumActions() int { return e.actions }
func (e *toyEnv) FeasibleActions() []bool {
	mask := make([]bool, e.actions)
	for i := range mask {
		mask[i] = true
	}
	return mask
}

var _ Environment = (*toyEnv)(nil)

func TestPPOSolvesContextualBandit(t *testing.T) {
	env := newToyEnv(1, 4, 64)
	cfg := DefaultConfig(4, 4)
	cfg.ActorLR = 5e-3
	cfg.CriticLR = 5e-3
	agent := NewPPO(cfg, rand.New(rand.NewSource(2)))
	var last float64
	for ep := 0; ep < 60; ep++ {
		env.reset()
		var buf Buffer
		last = CollectEpisode(env, agent, &buf)
		agent.Update(&buf)
	}
	// Perfect play scores +64; random scores ≈ -32. Require clear mastery.
	if last < 32 {
		t.Fatalf("PPO failed the bandit: final reward %v", last)
	}
	// The greedy policy should read the one-hot context correctly.
	correct := 0
	for i := 0; i < 4; i++ {
		state := make([]float64, 4)
		state[i] = 1
		if agent.GreedyAction(state, nil) == i {
			correct++
		}
	}
	if correct < 4 {
		t.Fatalf("greedy policy correct on %d/4 contexts", correct)
	}
}

func TestDualCriticSolvesContextualBandit(t *testing.T) {
	env := newToyEnv(3, 3, 48)
	cfg := DefaultConfig(3, 3)
	cfg.ActorLR = 5e-3
	cfg.CriticLR = 5e-3
	agent := NewDualCriticPPO(cfg, rand.New(rand.NewSource(4)))
	var last float64
	for ep := 0; ep < 60; ep++ {
		env.reset()
		var buf Buffer
		last = CollectEpisode(env, agent, &buf)
		agent.Update(&buf)
	}
	if last < 24 { // perfect is +48
		t.Fatalf("dual-critic PPO failed the bandit: final reward %v", last)
	}
}
