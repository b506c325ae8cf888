package cloudsim_test

import (
	"math/rand"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/rl"
	"repro/internal/workload"
)

// referenceGreedyEpisode is the evaluation loop the Greedy adapter replaced
// (rl.EvaluateEpisodeMasked → Drain → Metrics), kept as the golden's
// reference: observe once up front and after every non-final step, mask every
// decision with the environment's feasible set.
func referenceGreedyEpisode(env *cloudsim.Env, agent rl.Agent) cloudsim.Metrics {
	state := env.Observe(nil)
	for !env.Done() {
		env.Step(agent.GreedyAction(state, env.FeasibleActions()))
		if !env.Done() {
			state = env.Observe(state)
		}
	}
	env.Drain()
	return env.Metrics()
}

// TestGreedyAdapterMatchesReferenceLoop: a learned agent driven through the
// one policy contract (RunEpisode + Greedy) schedules exactly as the old
// agent-side loop did, for both agent types, on the per-VM layout and on the
// ranked one (TopK < len(VMs), where the mask and the action space address a
// candidate cache that every placement invalidates).
func TestGreedyAdapterMatchesReferenceLoop(t *testing.T) {
	vms := []cloudsim.VMSpec{{CPU: 2, Mem: 8}, {CPU: 4, Mem: 16}, {CPU: 4, Mem: 8}, {CPU: 8, Mem: 32}, {CPU: 2, Mem: 4}, {CPU: 8, Mem: 16}}
	tasks := cloudsim.ClampTasks(workload.SampleDataset(workload.Google, rand.New(rand.NewSource(3)), 60), vms)
	legacy := cloudsim.DefaultConfig(vms)
	ranked := legacy
	ranked.TopK = 3
	for _, layout := range []struct {
		name string
		cfg  cloudsim.Config
	}{{"legacy", legacy}, {"ranked", ranked}} {
		rlCfg := rl.DefaultConfig(cloudsim.StateDim(layout.cfg), cloudsim.NumActions(layout.cfg))
		for name, agent := range map[string]rl.Agent{
			"ppo":         rl.NewPPO(rlCfg, rand.New(rand.NewSource(5))),
			"dual-critic": rl.NewDualCriticPPO(rlCfg, rand.New(rand.NewSource(5))),
		} {
			want := referenceGreedyEpisode(cloudsim.MustNewEnv(layout.cfg, tasks), agent)
			got := cloudsim.RunEpisode(cloudsim.MustNewEnv(layout.cfg, tasks), cloudsim.Greedy(name, agent.GreedyAction))
			if got != want {
				t.Errorf("%s/%s: adapter metrics\n%+v\nreference loop\n%+v", layout.name, name, got, want)
			}
			if got.Steps == 0 || got.Completed == 0 {
				t.Errorf("%s/%s: degenerate episode %+v", layout.name, name, got)
			}
		}
	}
}
