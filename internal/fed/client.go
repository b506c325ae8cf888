// Package fed implements the in-process federated-reinforcement-learning
// layer of the paper: clients that train scheduling agents in their own
// environments, a Federation adapter that drives the shared round engine
// (internal/fedcore) with K-of-N participation (Algorithm 1), and three
// aggregation strategies — plain FedAvg (McMahan et al.), a server-momentum
// aggregator standing in for MFPO (Yue et al., INFOCOM'24), and the
// multi-head-attention personalizing aggregator of PFRL-DM (§4.4–4.5).
//
// The layer is composed of orthogonal pieces:
//
//   - Transport: which of a client agent's networks travel between client
//     and server, and what the client does after an install. FedAvg/MFPO
//     move the whole actor+critic of a plain agent; PFRL-DM moves only the
//     public critic of a dual-critic one. Every client holds the one agent
//     type, *rl.PPO.
//   - Aggregator: how the server combines uploads into per-client
//     personalized payloads and a stored global payload for
//     non-participants and late joiners.
//   - The round engine (internal/fedcore): selection, partial-aggregation
//     policy, reports, and the late-join rule — shared with the networked
//     path in internal/fednet.
package fed

import (
	"fmt"
	"time"

	"repro/internal/cloudsim"
	"repro/internal/obs"
	"repro/internal/rl"
	"repro/internal/workload"
)

// EpisodeEnv is a training environment that can restart its episode from
// the client's fixed training data. It is the seam a caller wraps the
// client's environment through — the end-to-end benchmark installs a timed
// wrapper around Env as TrainEnv — without the federation knowing.
type EpisodeEnv interface {
	rl.Environment
	// Begin resets the environment to the start of a training episode.
	Begin()
}

// Client couples an agent with its private environment and training tasks.
type Client struct {
	ID    int
	Name  string
	Env   *cloudsim.Env
	Tasks []workload.Task
	Agent *rl.PPO

	// TrainEnv, when non-nil, replaces Env as the training environment and
	// its Begin replaces Env.Reset(Tasks) at the start of every episode.
	TrainEnv EpisodeEnv

	// Rewards is the per-episode total-reward training curve.
	Rewards []float64
	// CriticLossPre / CriticLossPost record the critic's MSE on the most
	// recent trajectories immediately before and after each model download
	// (the Figure-9 probes).
	CriticLossPre  []float64
	CriticLossPost []float64
	// AlphaHistory records α after every episode for agents with a public
	// critic.
	AlphaHistory []float64

	// LastBuf holds the most recent episode's trajectories for loss probes
	// and α refreshes.
	LastBuf rl.Buffer

	// upload is the buffer every Upload of this client flattens into.
	upload Payload
}

// NewClient builds a federated client. The environment keeps cfg's
// federation-wide padding so all clients share observation shapes.
func NewClient(id int, name string, cfg cloudsim.Config, tasks []workload.Task, agent *rl.PPO) (*Client, error) {
	env, err := cloudsim.NewEnv(cfg, tasks)
	if err != nil {
		return nil, fmt.Errorf("fed: client %d: %w", id, err)
	}
	return &Client{ID: id, Name: name, Env: env, Tasks: tasks, Agent: agent}, nil
}

// TrainEpisodes runs n on-policy episodes with local updates, appending to
// the client's reward curve. The last episode's buffer is retained in
// LastBuf for loss probes.
//
// Each episode feeds the observability layer: rollout/update wall-clock
// accumulates into the global phase timers, the shared episode counter and
// latency histograms advance, and — only when an event sink is installed —
// an "episode" event with the update statistics is emitted. None of this
// touches the agents' RNG streams, so instrumented runs stay bit-identical.
func (c *Client) TrainEpisodes(n int) {
	for i := 0; i < n; i++ {
		var env rl.Environment
		if c.TrainEnv != nil {
			c.TrainEnv.Begin()
			env = c.TrainEnv
		} else {
			c.Env.Reset(c.Tasks)
			env = c.Env
		}
		c.LastBuf.Reset()
		rolloutStart := time.Now()
		total := rl.CollectEpisode(env, c.Agent, &c.LastBuf)
		rolloutDur := time.Since(rolloutStart)
		updateStart := time.Now()
		stats := c.Agent.Update(&c.LastBuf)
		updateDur := time.Since(updateStart)
		obs.GlobalTimers().Add(obs.PhaseRollout, rolloutDur)
		obs.GlobalTimers().Add(obs.PhaseUpdate, updateDur)
		mEpisodes.Inc()
		hRollout.Observe(rolloutDur.Seconds())
		hUpdate.Observe(updateDur.Seconds())
		c.Rewards = append(c.Rewards, total)
		dual := c.Agent.PublicCritic != nil
		if dual {
			c.AlphaHistory = append(c.AlphaHistory, c.Agent.Alpha)
		}
		if obs.Active() {
			e := obs.E("episode").At(c.ID, -1, len(c.Rewards)-1).
				F("reward", total).
				F("steps", float64(c.LastBuf.Len())).
				F("actor_loss", stats.ActorLoss).
				F("critic_loss", stats.CriticLoss).
				F("entropy", stats.Entropy).
				F("approx_kl", stats.ApproxKL).
				F("clip_frac", stats.ClipFrac).
				F("rollout_seconds", rolloutDur.Seconds()).
				F("update_seconds", updateDur.Seconds())
			if dual {
				e.F("alpha", c.Agent.Alpha)
			}
			if c.TrainEnv == nil {
				m := c.Env.Metrics()
				e.F("completed", float64(m.Completed)).F("total_tasks", float64(m.Total))
			}
			obs.Emit(e)
		}
	}
}

// Evaluate scores a scheduler on the given task set under the client's
// environment configuration, through the one evaluation function
// (cloudsim.Evaluate): policy or, when nil, the client's own agent — greedy,
// with the deployment-time feasibility guard. A malformed or out-of-order
// task list is reported as cloudsim.Evaluate reports it.
func (c *Client) Evaluate(tasks []workload.Task, policy cloudsim.Policy) (cloudsim.Metrics, error) {
	if policy == nil {
		policy = cloudsim.Greedy(c.Name, c.Agent.GreedyAction)
	}
	m, err := cloudsim.Evaluate(c.Env.Config(), tasks, policy)
	if err != nil {
		return m, fmt.Errorf("fed: client %d: evaluate: %w", c.ID, err)
	}
	return m, nil
}

// probeCriticLoss measures the critic MSE used by the Figure-9 probes on the
// network that aggregation touches: the public critic alone for a
// dual-critic agent (not the blend — Fig. 9 asks what a download did to the
// critic it replaced), the single critic otherwise. It reads the agent's
// memoized losses, so a probe of a critic that has not changed since the last
// α refresh computes nothing.
func (c *Client) probeCriticLoss() float64 {
	if c.LastBuf.Len() == 0 {
		return 0
	}
	local, public := c.Agent.CriticLosses(&c.LastBuf)
	if c.Agent.PublicCritic != nil {
		return public
	}
	return local
}
