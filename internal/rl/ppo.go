package rl

import (
	"math/rand"

	"repro/internal/autograd"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Config holds the PPO hyperparameters. The defaults mirror §3.1 of the
// paper: one hidden layer of 64 units, actor lr 3e-4, critic lr 1e-4,
// γ = 0.99, clip ε = 0.2.
type Config struct {
	StateDim   int
	NumActions int
	Hidden     []int // hidden layer sizes; nil means [64]

	ActorLR  float64
	CriticLR float64
	Gamma    float64
	Lambda   float64 // GAE λ
	Clip     float64 // ε in Eq. (12)
	EntCoef  float64 // entropy bonus coefficient
	// UpdateEpochs is Ω': optimization passes over the batch per Update.
	UpdateEpochs int
	MiniBatch    int
	MaxGradNorm  float64 // 0 disables clipping

	// ValueClip, when positive, clips the critic's new predictions to
	// within ±ValueClip of the collection-time value estimates and takes
	// the elementwise max of the clipped and unclipped losses (PPO2-style
	// value clipping; 0 disables, the paper's setting).
	ValueClip float64
	// TargetKL, when positive, stops the epoch loop early once the
	// approximate KL(π_old ‖ π_new) of an epoch exceeds it (standard PPO
	// safeguard; 0 disables, the paper's setting).
	TargetKL float64
}

// DefaultConfig returns the paper's hyperparameters for a given
// state/action space.
func DefaultConfig(stateDim, numActions int) Config {
	return Config{
		StateDim:     stateDim,
		NumActions:   numActions,
		Hidden:       []int{64},
		ActorLR:      3e-4,
		CriticLR:     1e-4,
		Gamma:        0.99,
		Lambda:       0.95,
		Clip:         0.2,
		EntCoef:      0.01,
		UpdateEpochs: 4,
		MiniBatch:    64,
		MaxGradNorm:  0.5,
	}
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Hidden == nil {
		out.Hidden = []int{64}
	}
	if out.MiniBatch <= 0 {
		out.MiniBatch = 64
	}
	if out.UpdateEpochs <= 0 {
		out.UpdateEpochs = 4
	}
	return out
}

func (c *Config) actorSizes() []int {
	return append(append([]int{c.StateDim}, c.Hidden...), c.NumActions)
}

func (c *Config) criticSizes() []int {
	return append(append([]int{c.StateDim}, c.Hidden...), 1)
}

// UpdateStats summarizes one Update call.
type UpdateStats struct {
	ActorLoss  float64 // final-epoch mean clipped surrogate (negated objective)
	CriticLoss float64 // final-epoch mean value MSE
	Entropy    float64 // final-epoch mean policy entropy
	ApproxKL   float64 // final-epoch approximate KL(π_old ‖ π_new)
	ClipFrac   float64 // final-epoch fraction of ratios outside [1−ε, 1+ε]
}

// PPO is an independent clipped-surrogate PPO agent with a single critic —
// the paper's baseline and the building block for FedAvg / MFPO clients.
type PPO struct {
	Cfg    Config
	Actor  *nn.MLP
	Critic *nn.MLP

	actorOpt  *nn.Adam
	criticOpt *nn.Adam
	rng       *rand.Rand
	prox      Proximal
	inf       inferScratch
	upd       updateScratch // batched update pipeline staging (see update.go)
}

// NewPPO builds an agent with freshly initialized networks.
func NewPPO(cfg Config, rng *rand.Rand) *PPO {
	cfg = cfg.withDefaults()
	p := &PPO{
		Cfg:    cfg,
		Actor:  nn.NewMLP(rng, "actor", cfg.actorSizes(), nn.ActTanh, 0.01),
		Critic: nn.NewMLP(rng, "critic", cfg.criticSizes(), nn.ActTanh, 1.0),
		rng:    rng,
	}
	p.actorOpt = nn.NewAdam(p.Actor, cfg.ActorLR)
	p.criticOpt = nn.NewAdam(p.Critic, cfg.CriticLR)
	return p
}

// SelectAction samples an action from π(·|state) and returns it with its
// log-probability under the current policy. It runs on the zero-allocation
// inference fast path: the gradient-free MLP.Infer plus the agent's reusable
// scratch buffers (see inferScratch), producing logits bitwise identical to
// the tape-based forward pass.
func (p *PPO) SelectAction(state []float64) (action int, logProb float64) {
	dist := p.inf.policyDist(p.Actor, state, p.Cfg.NumActions, nil)
	a := dist.Sample(p.rng)
	return a, dist.LogProb(a)
}

// GreedyAction returns the most probable action among those allowed by mask
// (nil allows all) — with an environment's feasibility mask, the
// deployment-time guard: a production scheduler never submits a placement
// the admission check would reject.
func (p *PPO) GreedyAction(state []float64, mask []bool) int {
	return p.inf.policyDist(p.Actor, state, p.Cfg.NumActions, mask).Argmax()
}

// Value returns the critic's estimate V(state).
func (p *PPO) Value(state []float64) float64 {
	return p.Critic.Infer(p.inf.valueBuf(), p.inf.setState(state)).Data[0]
}

// Update runs the clipped PPO update (Eqs. 10–12) over the buffer on the
// batched pipeline: GAE into agent-owned scratch, then the fused-surrogate
// minibatch loop of ppoUpdate.
func (p *PPO) Update(buf *Buffer) UpdateStats {
	st := &p.upd
	st.adv, st.targets = buf.GAEInto(p.Cfg.Gamma, p.Cfg.Lambda, st.adv, st.targets)
	NormalizeInPlace(st.adv)
	return ppoUpdate(ppoUpdateSpec{
		cfg:      p.Cfg,
		rng:      p.rng,
		scratch:  st,
		buf:      buf,
		adv:      st.adv,
		targets:  st.targets,
		actor:    p.Actor,
		actorOpt: p.actorOpt,
		criticLoss: func(tape *autograd.Tape, states, targets, oldValues *autograd.Value) *autograd.Value {
			return valueLoss(p.Critic.Forward(tape, states), targets, oldValues, p.Cfg.ValueClip)
		},
		criticModules: []criticModule{
			{net: p.Critic, opt: p.criticOpt},
		},
		prox: &p.prox,
	})
}

// valueLoss builds the critic regression loss: plain MSE, or the PPO2
// clipped form max(MSE(v), MSE(vOld + clip(v−vOld, ±ε))) when clip > 0.
func valueLoss(pred, targets, oldValues *autograd.Value, clip float64) *autograd.Value {
	plain := autograd.Square(autograd.Sub(pred, targets))
	if clip <= 0 {
		return autograd.Mean(plain)
	}
	clipped := autograd.Add(oldValues, autograd.Clamp(autograd.Sub(pred, oldValues), -clip, clip))
	clippedSq := autograd.Square(autograd.Sub(clipped, targets))
	// Elementwise max(a,b) = −min(−a,−b).
	worst := autograd.Neg(autograd.Minimum(autograd.Neg(plain), autograd.Neg(clippedSq)))
	return autograd.Mean(worst)
}

// CriticMSE evaluates a critic's mean squared error against the discounted
// returns of the trajectories in buf — the loss probe used for Figure 9.
func CriticMSE(critic *nn.MLP, buf *Buffer, gamma float64) float64 {
	if buf.Len() == 0 {
		return 0
	}
	states, returns := stageEpisode(buf, gamma)
	mse := stagedMSE(critic, states, returns)
	tensor.Put(states)
	return mse
}

// stageEpisode copies every state of buf into one pooled matrix (the caller
// returns it with tensor.Put) and computes the discounted returns beside it,
// so several critics can be probed on one staging (see RefreshAlpha).
func stageEpisode(buf *Buffer, gamma float64) (states *tensor.Matrix, returns []float64) {
	steps := buf.Steps()
	states = tensor.Get(len(steps), len(steps[0].State))
	for i, s := range steps {
		copy(states.Row(i), s.State)
	}
	return states, buf.Returns(gamma)
}

// stagedMSE is the critic's mean squared error against returns on the
// staged states.
func stagedMSE(critic *nn.MLP, states *tensor.Matrix, returns []float64) float64 {
	v := tensor.Get(states.Rows, 1)
	critic.Infer(v, states)
	mse := 0.0
	for i := range returns {
		d := v.Data[i] - returns[i]
		mse += d * d
	}
	tensor.Put(v)
	return mse / float64(len(returns))
}
