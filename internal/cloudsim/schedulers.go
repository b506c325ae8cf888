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

// candPrefixLen returns the number of feasible (non-void) candidate slots
// in ranked mode. Non-void entries always form a prefix.
func candPrefixLen(env *Env) int {
	cand := env.Candidates()
	n := 0
	for n < len(cand) && cand[n] >= 0 {
		n++
	}
	return n
}

// FirstFit places the head task on the lowest-indexed VM that fits it,
// waiting when none does. In ranked mode it picks the candidate slot whose
// VM index is lowest (the candidates are the only visible VMs).
type FirstFit struct{}

// Name implements Policy.
func (FirstFit) Name() string { return "first-fit" }

// SelectAction implements Policy.
func (FirstFit) SelectAction(env *Env) int {
	head, ok := env.HeadTask()
	if !ok {
		return env.WaitAction()
	}
	if env.Ranked() {
		cand := env.Candidates()
		best, slot := -1, -1
		for s, vi := range cand {
			if vi < 0 {
				break
			}
			if best == -1 || int(vi) < best {
				best, slot = int(vi), s
			}
		}
		if slot == -1 {
			return env.WaitAction()
		}
		return slot
	}
	for i, vm := range env.VMs() {
		if vm.Fits(head) {
			return i
		}
	}
	return env.WaitAction()
}

// BestFit places the head task on the fitting VM with the least leftover
// weighted capacity after placement (tightest fit), waiting when none fits.
// In ranked mode candidate slot 0 is already the tightest-fitting candidate
// (the index ranks by ascending free-capacity class), so BestFit takes it.
type BestFit struct{}

// Name implements Policy.
func (BestFit) Name() string { return "best-fit" }

// SelectAction implements Policy.
func (BestFit) SelectAction(env *Env) int {
	head, ok := env.HeadTask()
	if !ok {
		return env.WaitAction()
	}
	if env.Ranked() {
		if env.Candidates()[0] >= 0 {
			return 0
		}
		return env.WaitAction()
	}
	cfg := env.Config()
	best, bestScore := -1, 0.0
	for i, vm := range env.VMs() {
		if !vm.Fits(head) {
			continue
		}
		leftCPU := float64(vm.FreeCPU()-head.CPU) / float64(cfg.MaxCPU)
		leftMem := (vm.FreeMem() - head.Mem) / cfg.MaxMem
		score := cfg.ResourceWeights[0]*leftCPU + cfg.ResourceWeights[1]*leftMem
		if best == -1 || score < bestScore {
			best, bestScore = i, score
		}
	}
	if best == -1 {
		return env.WaitAction()
	}
	return best
}

// WorstFit places the head task on the fitting VM with the most leftover
// capacity (spreads load), waiting when none fits. In ranked mode it takes
// the last feasible candidate slot — the loosest fit the index surfaced.
type WorstFit struct{}

// Name implements Policy.
func (WorstFit) Name() string { return "worst-fit" }

// SelectAction implements Policy.
func (WorstFit) SelectAction(env *Env) int {
	head, ok := env.HeadTask()
	if !ok {
		return env.WaitAction()
	}
	if env.Ranked() {
		if n := candPrefixLen(env); n > 0 {
			return n - 1
		}
		return env.WaitAction()
	}
	cfg := env.Config()
	best, bestScore := -1, 0.0
	for i, vm := range env.VMs() {
		if !vm.Fits(head) {
			continue
		}
		leftCPU := float64(vm.FreeCPU()-head.CPU) / float64(cfg.MaxCPU)
		leftMem := (vm.FreeMem() - head.Mem) / cfg.MaxMem
		score := cfg.ResourceWeights[0]*leftCPU + cfg.ResourceWeights[1]*leftMem
		if best == -1 || score > bestScore {
			best, bestScore = i, score
		}
	}
	if best == -1 {
		return env.WaitAction()
	}
	return best
}

// RandomFit places the head task on a uniformly random fitting VM,
// waiting when none fits.
type RandomFit struct{ Rng *rand.Rand }

// Name implements Policy.
func (RandomFit) Name() string { return "random-fit" }

// SelectAction implements Policy.
func (p RandomFit) SelectAction(env *Env) int {
	head, ok := env.HeadTask()
	if !ok {
		return env.WaitAction()
	}
	if env.Ranked() {
		if n := candPrefixLen(env); n > 0 {
			return p.Rng.Intn(n)
		}
		return env.WaitAction()
	}
	var fits []int
	for i, vm := range env.VMs() {
		if vm.Fits(head) {
			fits = append(fits, i)
		}
	}
	if len(fits) == 0 {
		return env.WaitAction()
	}
	return fits[p.Rng.Intn(len(fits))]
}

// RoundRobin cycles placement across VMs, skipping to the next fitting VM;
// it waits when nothing fits.
type RoundRobin struct{ next int }

// Name implements Policy.
func (*RoundRobin) Name() string { return "round-robin" }

// SelectAction implements Policy.
func (p *RoundRobin) SelectAction(env *Env) int {
	head, ok := env.HeadTask()
	if !ok {
		return env.WaitAction()
	}
	if env.Ranked() {
		if n := candPrefixLen(env); n > 0 {
			s := p.next % n
			p.next = (s + 1) % n
			return s
		}
		return env.WaitAction()
	}
	n := len(env.VMs())
	for k := 0; k < n; k++ {
		i := (p.next + k) % n
		if env.VMs()[i].Fits(head) {
			p.next = (i + 1) % n
			return i
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
// tasks unscheduled.
func Evaluate(cfg Config, tasks []workload.Task, policy Policy) (Metrics, error) {
	cfg.MaxSteps = 0
	env, err := NewEnv(cfg, tasks)
	if err != nil {
		return Metrics{}, err
	}
	return RunEpisode(env, policy), nil
}
