package workflow

import (
	"math/rand"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/fed"
	"repro/internal/rl"
	"repro/internal/workload"
)

func newWorkflowClient(t *testing.T, id int, dataset workload.DatasetID, seed int64) *fed.Client {
	t.Helper()
	cfg := cloudsim.DefaultConfig([]cloudsim.VMSpec{{CPU: 4, Mem: 16}, {CPU: 8, Mem: 32}})
	cfg.MaxSteps = 400
	gen := DefaultGenConfig(dataset)
	gen.MaxStages = 4
	rng := rand.New(rand.NewSource(seed))
	wfs := ClampToVMs(Generate(rng, gen, 3), cfg.VMs)
	agent := rl.NewDualCriticPPO(
		rl.DefaultConfig(cloudsim.StateDim(cfg), cfg.PadVMs+1),
		rand.New(rand.NewSource(seed*13+1)))
	c, err := NewFederatedClient(id, dataset.String(), cfg, wfs, agent)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFederatedWorkflowTraining(t *testing.T) {
	// PFRL-DM over clients that schedule workflow DAGs: the federation
	// machinery (public-critic transport, attention aggregation) must run
	// unchanged on the workflow environment.
	clients := []*fed.Client{
		newWorkflowClient(t, 0, workload.Google, 1),
		newWorkflowClient(t, 1, workload.K8S, 2),
		newWorkflowClient(t, 2, workload.KVM2019, 3),
	}
	f, err := fed.New(clients, fed.PublicCriticTransport{}, fed.NewAttention(4),
		fed.Options{K: 2, CommEvery: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RunEpisodes(3); err != nil {
		t.Fatal(err)
	}
	if f.Rounds != 3 {
		t.Fatalf("rounds %d", f.Rounds)
	}
	for _, c := range clients {
		if len(c.Rewards) != 3 {
			t.Fatalf("client %d trained %d episodes", c.ID, len(c.Rewards))
		}
		if c.LastBuf.Len() == 0 {
			t.Fatalf("client %d has no trajectories", c.ID)
		}
	}
	if f.Comm().Total() == 0 {
		t.Fatal("no communication recorded")
	}
}

func TestEvaluateWorkflows(t *testing.T) {
	cfg := cloudsim.DefaultConfig([]cloudsim.VMSpec{{CPU: 4, Mem: 16}, {CPU: 8, Mem: 32}})
	cfg.MaxSteps = 400
	rng := rand.New(rand.NewSource(6))
	gen := DefaultGenConfig(workload.Google)
	gen.MaxStages = 4
	wfs := ClampToVMs(Generate(rng, gen, 3), cfg.VMs)
	agent := rl.NewPPO(rl.DefaultConfig(cloudsim.StateDim(cfg), cfg.PadVMs+1),
		rand.New(rand.NewSource(7)))
	env, err := NewEnv(cfg, wfs)
	if err != nil {
		t.Fatal(err)
	}
	recs, m := EvaluateWorkflows(env, agent.GreedyAction)
	if len(recs) != 3 {
		t.Fatalf("workflows completed %d/3", len(recs))
	}
	if m.Completed != m.Total {
		t.Fatalf("stages completed %d/%d", m.Completed, m.Total)
	}
}

func TestEpisodeAdapterBegin(t *testing.T) {
	cfg := cloudsim.DefaultConfig([]cloudsim.VMSpec{{CPU: 4, Mem: 16}})
	wfs := []Workflow{chainWorkflow(0, 0, 1, 1)}
	env, err := NewEnv(cfg, wfs)
	if err != nil {
		t.Fatal(err)
	}
	a := NewEpisodeAdapter(env, wfs)
	env.Step(0)
	a.Begin()
	if env.Inner().Now() != 0 || len(env.Inner().Records()) != 0 {
		t.Fatal("Begin did not restart the episode")
	}
}
