package rl

import "math/rand"

// SyntheticEnv is a contextual-bandit Environment used for benchmarking and
// load tests: each step presents a random Gaussian context and rewards the
// action whose fixed scoring vector best matches it. It is deliberately
// cheap and, after construction, allocation-free — Observe copies into the
// caller's buffer and Step regenerates the context in place — so rollout
// benchmarks measure the agent, not the environment.
//
// Unlike the cloudsim environment it has no queueing dynamics, which keeps
// per-step cost constant and lets BenchmarkRolloutStep assert a strict
// 0 allocs/op for the inference fast path.
type SyntheticEnv struct {
	stateDim   int
	numActions int
	horizon    int

	t        int
	rng      *rand.Rand
	state    []float64
	feasible []bool
	weights  []float64 // numActions x stateDim scoring vectors, row-major
}

// NewSyntheticEnv builds an environment with the given observation length,
// action count, and episode length. All randomness derives from seed.
func NewSyntheticEnv(stateDim, numActions, horizon int, seed int64) *SyntheticEnv {
	e := &SyntheticEnv{
		stateDim:   stateDim,
		numActions: numActions,
		horizon:    horizon,
		rng:        rand.New(rand.NewSource(seed)),
		state:      make([]float64, stateDim),
		feasible:   make([]bool, numActions),
		weights:    make([]float64, numActions*stateDim),
	}
	for i := range e.weights {
		e.weights[i] = e.rng.NormFloat64()
	}
	e.Reset()
	return e
}

// Reset starts a new episode.
func (e *SyntheticEnv) Reset() {
	e.t = 0
	e.refresh()
}

// refresh draws the next context and feasibility mask in place.
func (e *SyntheticEnv) refresh() {
	for i := range e.state {
		e.state[i] = e.rng.NormFloat64()
	}
	// Rotate one infeasible action per step so masked evaluation paths get
	// exercised without ever masking everything.
	for a := range e.feasible {
		e.feasible[a] = a != e.t%e.numActions
	}
}

// Observe implements Environment.
func (e *SyntheticEnv) Observe(dst []float64) []float64 {
	if cap(dst) < e.stateDim {
		dst = make([]float64, e.stateDim)
	}
	dst = dst[:e.stateDim]
	copy(dst, e.state)
	return dst
}

// Step implements Environment: the reward is the chosen action's score
// under its fixed weight vector, scaled to O(1).
func (e *SyntheticEnv) Step(action int) float64 {
	if action < 0 || action >= e.numActions {
		panic("rl: SyntheticEnv.Step: action out of range")
	}
	w := e.weights[action*e.stateDim : (action+1)*e.stateDim]
	score := 0.0
	for i, x := range e.state {
		score += w[i] * x
	}
	e.t++
	if !e.Done() {
		e.refresh()
	}
	return score / float64(e.stateDim)
}

// Done implements Environment.
func (e *SyntheticEnv) Done() bool { return e.t >= e.horizon }

// Truncated implements Truncator: the horizon cut is always a truncation —
// the bandit has no terminal state. After the cut, Observe returns the final
// context (refresh is skipped once Done), which stands in for the successor
// state; for a contextual bandit the critic's value of any context is an
// equally valid continuation estimate.
func (e *SyntheticEnv) Truncated() bool { return e.t >= e.horizon }

// StateDim implements Environment.
func (e *SyntheticEnv) StateDim() int { return e.stateDim }

// NumActions implements Environment.
func (e *SyntheticEnv) NumActions() int { return e.numActions }

// FeasibleActions implements Environment. The returned slice is reused
// across steps.
func (e *SyntheticEnv) FeasibleActions() []bool { return e.feasible }

var (
	_ Environment = (*SyntheticEnv)(nil)
	_ Truncator   = (*SyntheticEnv)(nil)
)
