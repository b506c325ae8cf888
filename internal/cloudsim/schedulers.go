package cloudsim

import (
	"math/rand"

	"repro/internal/workload"
)

// Policy selects the next action given the environment. It is the one
// scheduler contract: the heuristics below are the floor of the Figure 16–19
// tables, and a learned agent enters through Greedy, so every scheduler is
// driven by RunEpisode and scored by Evaluate.
type Policy interface {
	// SelectAction returns an action index in [0, env.NumActions()).
	SelectAction(env *Env) int
	// Name identifies the policy in reports.
	Name() string
}

// The heuristics read the cluster through the same slot view as a learned
// agent (Env.Candidates): each walks the slots whose VM fits the head task and
// returns a slot, so one body serves the per-VM layout (slot i = VM i) and
// the ranked one (slots = the candidates the index surfaced, the only VMs
// visible there). All wait when nothing fits or the queue is empty.

// FirstFit places the head task on the fitting slot whose VM index is
// lowest — in the per-VM layout, the lowest-indexed VM that fits.
type FirstFit struct{}

// Name implements Policy.
func (FirstFit) Name() string { return "first-fit" }

// SelectAction implements Policy.
func (FirstFit) SelectAction(env *Env) int {
	head, slots := env.headSlots()
	best, lowest := env.WaitAction(), int32(-1)
	for s, vi := range slots {
		if env.slotFits(vi, head) && (lowest == -1 || vi < lowest) {
			best, lowest = s, vi
		}
	}
	return best
}

// BestFit places the head task on the fitting slot with the least leftover
// weighted capacity after placement (tightest fit); the earliest slot wins
// ties.
type BestFit struct{}

// Name implements Policy.
func (BestFit) Name() string { return "best-fit" }

// SelectAction implements Policy.
func (BestFit) SelectAction(env *Env) int { return leftoverFit(env, 1) }

// WorstFit places the head task on the fitting slot with the most leftover
// capacity (spreads load); the earliest slot wins ties.
type WorstFit struct{}

// Name implements Policy.
func (WorstFit) Name() string { return "worst-fit" }

// SelectAction implements Policy.
func (WorstFit) SelectAction(env *Env) int { return leftoverFit(env, -1) }

// leftoverFit returns the fitting slot that minimizes sign × the weighted
// normalized capacity its VM would have left after taking the head task.
func leftoverFit(env *Env, sign float64) int {
	head, slots := env.headSlots()
	cfg := &env.cfg
	best, bestScore := -1, 0.0
	for s, vi := range slots {
		if !env.slotFits(vi, head) {
			continue
		}
		vm := env.vms[vi]
		leftCPU := float64(vm.freeCPU-head.CPU) / float64(cfg.MaxCPU)
		leftMem := (vm.freeMem - head.Mem) / cfg.MaxMem
		score := sign * (resourceWeights[0]*leftCPU + resourceWeights[1]*leftMem)
		if best == -1 || score < bestScore {
			best, bestScore = s, score
		}
	}
	if best == -1 {
		return env.WaitAction()
	}
	return best
}

// RandomFit places the head task on a uniformly random fitting slot. It
// draws from Rng only when something fits.
type RandomFit struct{ Rng *rand.Rand }

// Name implements Policy.
func (RandomFit) Name() string { return "random-fit" }

// SelectAction implements Policy.
func (p RandomFit) SelectAction(env *Env) int {
	head, slots := env.headSlots()
	n := 0
	for _, vi := range slots {
		if env.slotFits(vi, head) {
			n++
		}
	}
	pick := -1
	if n > 0 {
		pick = p.Rng.Intn(n)
	}
	for s, vi := range slots {
		if env.slotFits(vi, head) {
			if pick == 0 {
				return s
			}
			pick--
		}
	}
	return env.WaitAction()
}

// RoundRobin cycles placement across the slots, skipping to the next one
// that fits.
type RoundRobin struct{ next int }

// Name implements Policy.
func (*RoundRobin) Name() string { return "round-robin" }

// SelectAction implements Policy.
func (p *RoundRobin) SelectAction(env *Env) int {
	head, slots := env.headSlots()
	for k := range slots {
		s := (p.next + k) % len(slots)
		if env.slotFits(slots[s], head) {
			p.next = (s + 1) % len(slots)
			return s
		}
	}
	return env.WaitAction()
}

// greedy is the Policy behind Greedy.
type greedy struct {
	name   string
	choose func(state []float64, mask []bool) int
	state  []float64
}

// Greedy adapts a learned agent to Policy: at every decision the environment
// is observed afresh and choose picks among the placements it can admit
// (plus Wait). Training stays unmasked — agents learn feasibility through the
// Eq. (9) penalties, as in the paper — but a deployed scheduler never submits
// a placement its admission check would reject. Taking a function value
// (rl.Agent's GreedyAction) keeps this package free of internal/rl.
func Greedy(name string, choose func(state []float64, mask []bool) int) Policy {
	return &greedy{name: name, choose: choose}
}

// Name implements Policy.
func (g *greedy) Name() string { return g.name }

// SelectAction implements Policy.
func (g *greedy) SelectAction(env *Env) int {
	g.state = env.Observe(g.state)
	return g.choose(g.state, env.FeasibleActions())
}

// RunEpisode drives env with policy until the episode ends, drains running
// tasks, and returns the final metrics.
func RunEpisode(env *Env, policy Policy) Metrics {
	for !env.Done() {
		env.Step(policy.SelectAction(env))
	}
	env.Drain()
	return env.Metrics()
}

// Evaluate runs policy over tasks in a fresh environment and returns the
// drained metrics: the one evaluation every reported §5.1 measure comes from,
// for heuristics and learned agents alike. An evaluation never inherits a
// training step cap: cfg.MaxSteps is ignored in favour of NewEnv's default
// horizon, so a cap that bounds training episodes cannot cut the schedule
// being scored. Metrics.Completed < Total then means the policy itself left
// tasks unscheduled. A malformed or out-of-order task list is an error
// (Env.SourceErr): the metrics returned with it cover only the tasks admitted
// before the fault.
func Evaluate(cfg Config, tasks []workload.Task, policy Policy) (Metrics, error) {
	cfg.MaxSteps = 0
	env, err := NewEnv(cfg, tasks)
	if err != nil {
		return Metrics{}, err
	}
	m := RunEpisode(env, policy)
	return m, env.SourceErr()
}
