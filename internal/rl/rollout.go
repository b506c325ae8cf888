package rl

import "repro/internal/obs"

// Environment is the MDP contract the agents train against. cloudsim.Env
// implements it; any other discrete-action environment (a different
// scheduler model, a toy benchmark) can be plugged in without touching the
// agents.
type Environment interface {
	// Observe encodes the current state into dst (reallocating when dst is
	// too small) and returns the buffer.
	Observe(dst []float64) []float64
	// Step executes an action and returns its reward.
	Step(action int) float64
	// Done reports whether the episode has ended.
	Done() bool
	// StateDim returns the observation length.
	StateDim() int
	// NumActions returns the size of the discrete action space.
	NumActions() int
	// FeasibleActions masks the currently admissible actions. The returned
	// slice may be a scratch buffer reused by the environment's next
	// FeasibleActions call (both cloudsim.Env and SyntheticEnv reuse it, so
	// masked evaluation stays allocation-free); callers must not retain it
	// across steps.
	FeasibleActions() []bool
}

// Agent is what a rollout asks of a learner. PPO is the one product
// implementation; the interface is CollectEpisode's parameter so a test can
// collect with a fake.
type Agent interface {
	// SelectAction samples from the current policy.
	SelectAction(state []float64) (action int, logProb float64)
	// GreedyAction returns the most probable action among those mask allows
	// (evaluation); a nil mask allows every action.
	GreedyAction(state []float64, mask []bool) int
	// Value estimates V(state) with the agent's critic(s).
	Value(state []float64) float64
	// Update consumes an on-policy buffer and improves the networks.
	Update(buf *Buffer) UpdateStats
}

// Truncator is an optional Environment refinement that distinguishes a
// horizon/step-cap cut from a true terminal state. Done() must stay true for
// both (it is the episode-boundary signal), but when an environment also
// reports Truncated(), the collector bootstraps the tail of the cut episode
// with the critic's value of the successor state instead of zero — a zero
// bootstrap at a cut writes off the entire continuation and biases every
// advantage upstream of the boundary. cloudsim.Env implements it (its
// MaxSteps cap is a cut); the interface keeps the collector free of any
// environment package.
type Truncator interface {
	// Truncated reports whether the current Done() is a horizon cut rather
	// than a terminal. Only meaningful while Done() is true.
	Truncated() bool
}

var _ Agent = (*PPO)(nil)

// Rollout metrics, shared via the default registry. Counter bumps are single
// atomic adds and happen at most once per step/episode, preserving the
// zero-allocation rollout contract.
var (
	mEnvSteps = obs.DefaultRegistry().Counter("pfrl_env_steps_total",
		"environment steps taken by training rollouts")
	mTruncations = obs.DefaultRegistry().Counter("pfrl_episode_truncations_total",
		"training episodes cut by a horizon/step cap (tail bootstrapped with the critic)")
)

// CollectEpisode runs one stochastic-policy episode on env, appending every
// transition to buf (with the agent's value estimates for GAE), and returns
// the episode's total reward. The caller is responsible for resetting the
// environment beforehand and may read environment-specific metrics after.
//
// If env implements Truncator and the episode ends on a horizon cut, the
// final transition carries Truncated=true and Bootstrap=V(s_{T+1}) from the
// agent's critic, so advantage estimation does not write off the cut tail.
// The extra Value call runs on the gradient-free inference path and touches
// no RNG, so collection remains bitwise deterministic.
func CollectEpisode(env Environment, agent Agent, buf *Buffer) float64 {
	total := 0.0
	steps := uint64(0)
	state := env.Observe(buf.obs)
	for !env.Done() {
		action, logp := agent.SelectAction(state)
		value := agent.Value(state)
		reward := env.Step(action)
		total += reward
		steps++
		done := env.Done()
		// The copy is taken here, before the next Observe overwrites state.
		tr := Transition{
			State:   buf.storeState(state),
			Action:  action,
			Reward:  reward,
			LogProb: logp,
			Value:   value,
			Done:    done,
		}
		if !done {
			state = env.Observe(state)
		} else if t, ok := env.(Truncator); ok && t.Truncated() {
			state = env.Observe(state)
			tr.Truncated = true
			tr.Bootstrap = agent.Value(state)
			mTruncations.Inc()
		}
		buf.Add(tr)
	}
	buf.obs = state
	mEnvSteps.Add(steps)
	return total
}

// EvaluateEpisodeMasked runs one greedy episode (no exploration, no
// recording) and returns the total reward: at every step choose — an agent's
// GreedyAction, or any function of the same shape — sees the observation and
// the environment's feasibility mask. It is the greedy loop for environments
// that are not a bare *cloudsim.Env (the synthetic env of rl's tests and
// benchmarks); cloudsim task sets are evaluated by cloudsim.Evaluate.
func EvaluateEpisodeMasked(env Environment, choose func(state []float64, mask []bool) int) float64 {
	total := 0.0
	state := env.Observe(nil)
	for !env.Done() {
		total += env.Step(choose(state, env.FeasibleActions()))
		if !env.Done() {
			state = env.Observe(state)
		}
	}
	return total
}
