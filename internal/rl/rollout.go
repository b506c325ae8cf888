package rl

import (
	"repro/internal/obs"
	"repro/internal/tensor"
)

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
	// Estimator returns the agent's value function as it stands now.
	// CollectEpisode takes one per episode and values the episode's states
	// with it, possibly on another goroutine while SelectAction runs: it
	// must read nothing SelectAction writes.
	Estimator() ValueEstimator
}

// ValueEstimator estimates state values a block at a time.
type ValueEstimator interface {
	// Values writes V(s) of every row of states into dst[:states.Rows]. It
	// must not write states.
	Values(dst []float64, states *tensor.Matrix)
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

// Padded is an optional Environment refinement for observations padded to
// a fixed width, as the paper's are (§4.1: every VM slot and vCPU padded to
// the federation's caps). LivePositions lists, ascending, every position
// the environment's Observe can write; every other position of every
// observation holds void. CollectEpisode stores only the live positions of
// each state (Buffer), and every reader gets the full observation back bit
// for bit; an environment without it has every position live. cloudsim.Env
// implements it.
type Padded interface {
	// LivePositions returns the live positions and the void value. The
	// slice is the environment's, fixed for its life; callers must not
	// write it.
	LivePositions() (live []int, void float64)
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
//
// No step waits for a value: GAE reads them only after the episode. The
// rollout runs Observe, SelectAction and Step, and the states are valued
// with the estimator the agent gave at the start, one stored chunk at a
// time (see valueLane). Every Value and the Bootstrap carry the bits of a
// one-state call, and valuing draws no random numbers, so collection stays
// bitwise deterministic. The buffer stores each state at its live width
// (Padded).
func CollectEpisode(env Environment, agent Agent, buf *Buffer) float64 {
	total := 0.0
	steps := uint64(0)
	buf.fit(env)
	next := buf.Len() // the first transition not yet handed for valuation
	buf.mark = buf.rows
	state := env.Observe(buf.obs)
	lane := &buf.values
	lane.est = agent.Estimator()
	defer lane.join() // a panic must not leave the lane waiting
	for !env.Done() {
		action, logp := agent.SelectAction(state)
		reward := env.Step(action)
		total += reward
		steps++
		done := env.Done()
		// The copy is taken here, before the next Observe overwrites state.
		full := buf.storeState(state)
		tr := Transition{
			Action:  action,
			Reward:  reward,
			LogProb: logp,
			Done:    done,
		}
		if !done {
			state = env.Observe(state)
		} else if t, ok := env.(Truncator); ok && t.Truncated() {
			state = env.Observe(state)
			tr.Truncated = true
			mTruncations.Inc()
		}
		if len(buf.steps) == cap(buf.steps) {
			lane.join() // push moves the transitions the lane writes into
		}
		buf.push(tr)
		if full && !done {
			lane.add(valueBlock{buf.layout, buf.takeRows(), buf.steps[next:]})
			next = buf.Len()
		}
	}
	buf.obs = state
	lane.finish(valueBlock{buf.layout, buf.takeRows(), buf.steps[next:]})
	if last := len(buf.steps) - 1; steps > 0 && buf.steps[last].Truncated {
		buf.steps[last].Bootstrap = lane.bootstrap(state)
	}
	mEnvSteps.Add(steps)
	return total
}

// valueBlock is a run of stored states, row-major at their layout's live
// width, and the transitions whose Value their estimates fill.
type valueBlock struct {
	layout *stateLayout
	states []float64
	steps  []Transition
}

// valueLane values one episode's states, a block of stored rows at a time:
// it expands the block into a full-width matrix borrowed from the tensor
// pool (borrowStates), runs one MLP.Infer per network on it, and writes
// each estimate into its transition. When a second P can run it (useLanes,
// the rule the update's critic lane follows), the first full chunk starts a
// goroutine that values this and every later block while the rollout goes
// on, and finish joins it; otherwise the caller values each block as its
// chunk fills. A block's states are read-only from hand-off until Reset:
// storeState never writes a full chunk again, and a relayout stores the
// rows anew elsewhere. Its transitions' Value fields are the lane's until
// the join, and the collector joins before a push could move them and
// before CollectEpisode returns. Once the Buffer, the agent and the pool
// are warm neither path allocates.
type valueLane struct {
	est  ValueEstimator
	view tensor.Matrix // the state after a cut episode
	out  []float64     // the estimates of a block

	running bool
	blocks  chan valueBlock // blocks handed to the running lane; a zero block ends it
	done    chan struct{}
}

// laneDepth is how many blocks may wait for the lane before the rollout
// blocks on the hand-off; it values a chunk far faster than the rollout
// fills one.
const laneDepth = 4

// laneStart passes a value lane to the goroutine started for it; any such
// goroutine may take any lane. runValueLane takes no arguments, so a go
// statement needs no closure and starting it allocates nothing once the
// runtime has an exited goroutine to reuse. The buffer lets a collector
// hand its lane over without waiting for the new goroutine to be scheduled,
// sixteen at once (table3_parallel runs ten clients); every send follows
// its own go statement, so a sender blocked on a full channel is always
// released.
var laneStart = make(chan *valueLane, 16)

func runValueLane() {
	l := <-laneStart
	for b := <-l.blocks; b.steps != nil; b = <-l.blocks {
		l.estimate(b)
	}
	l.done <- struct{}{}
}

// add values a full chunk's block: on the lane, started here if a second P
// can run it, or on the caller.
func (l *valueLane) add(b valueBlock) {
	if !l.running && useLanes() {
		if l.blocks == nil {
			l.blocks = make(chan valueBlock, laneDepth)
			l.done = make(chan struct{}, 1)
		}
		l.running = true
		go runValueLane()
		laneStart <- l
	}
	if l.running {
		l.blocks <- b
		return
	}
	l.estimate(b)
}

// finish values the episode's last block, where the running lane or the
// caller values the others, and joins the lane.
func (l *valueLane) finish(b valueBlock) {
	if len(b.steps) > 0 {
		if l.running {
			l.blocks <- b
		} else {
			l.estimate(b)
		}
	}
	l.join()
}

// join waits until the running lane has valued every block handed to it.
func (l *valueLane) join() {
	if l.running {
		l.blocks <- valueBlock{}
		<-l.done
		l.running = false
	}
}

// estimate writes the estimate of each of b's states into its transition.
func (l *valueLane) estimate(b valueBlock) {
	n := len(b.steps)
	if cap(l.out) < n {
		l.out = make([]float64, n)
	}
	states := borrowStates(n, b.layout.width)
	b.layout.expandRows(states, b.states)
	l.est.Values(l.out[:n], states)
	tensor.Put(states)
	for i, v := range l.out[:n] {
		b.steps[i].Value = v
	}
}

// bootstrap returns the estimate of the state after a cut episode, on the
// caller once the lane has joined; the episode's blocks have sized out.
func (l *valueLane) bootstrap(state []float64) float64 {
	l.est.Values(l.out[:1], rowView(&l.view, state))
	return l.out[0]
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
