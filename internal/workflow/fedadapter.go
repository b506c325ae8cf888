package workflow

import (
	"repro/internal/cloudsim"
	"repro/internal/fed"
	"repro/internal/rl"
)

// EpisodeAdapter makes a workflow environment trainable inside a federated
// client (fed.EpisodeEnv): Begin restarts the episode from the client's
// fixed workflow set.
type EpisodeAdapter struct {
	*Env
	wfs []Workflow
}

// NewEpisodeAdapter wraps env with its training workflow set.
func NewEpisodeAdapter(env *Env, wfs []Workflow) *EpisodeAdapter {
	return &EpisodeAdapter{Env: env, wfs: wfs}
}

// Begin implements fed.EpisodeEnv.
func (a *EpisodeAdapter) Begin() { a.Env.Reset(a.wfs) }

// NewFederatedClient builds a fed.Client that trains on workflow DAGs
// instead of flat task sets — federated learning of workflow schedulers,
// the combination of the paper's framework with its stated future work.
// The returned client's Evaluate method is not meaningful for workflows;
// use EvaluateWorkflows instead.
func NewFederatedClient(id int, name string, cfg cloudsim.Config, wfs []Workflow, agent *rl.PPO) (*fed.Client, error) {
	env, err := NewEnv(cfg, wfs)
	if err != nil {
		return nil, err
	}
	c, err := fed.NewClient(id, name, cfg, nil, agent)
	if err != nil {
		return nil, err
	}
	c.TrainEnv = NewEpisodeAdapter(env, wfs)
	return c, nil
}

// EvaluateWorkflows drives env to the end of its episode with choose — an
// agent's GreedyAction (feasibility-guarded), or a heuristic reading
// env.Inner() — drains it, and returns the per-workflow records and stage
// metrics.
func EvaluateWorkflows(env *Env, choose func(state []float64, mask []bool) int) ([]WorkflowRecord, cloudsim.Metrics) {
	rl.EvaluateEpisodeMasked(env, choose)
	env.Drain()
	return env.WorkflowRecords(), env.Metrics()
}
