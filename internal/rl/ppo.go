package rl

import (
	"errors"
	"math"
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

// PPO is the one learner: a clipped-surrogate PPO actor (Eqs. 10–12) with a
// critic, and — for PFRL-DM's clients (§4.3) — an optional public critic
// beside it:
//
//   - Critic (φ): the only critic of a plain agent (the paper's baseline and
//     the FedAvg / MFPO client, where it travels with the actor); the local
//     critic of a dual-critic one, which never leaves the client and
//     preserves local experience.
//   - PublicCritic (ψ): nil for a plain agent. Periodically replaced by the
//     server's personalized aggregate; the only network of a dual-critic
//     agent that travels.
//
// With ψ, state values blend the two: V(s) = α·V_φ(s) + (1−α)·V_ψ(s)
// (Eq. 14), with α adapted from the critics' losses on the current
// trajectory buffer via a two-way softmax (Eq. 15) so whichever critic
// currently evaluates the client's environment better dominates. Both
// critics are regressed toward the observed returns on every update
// (Eqs. 16–17).
type PPO struct {
	Cfg          Config
	Actor        *nn.MLP
	Critic       *nn.MLP
	PublicCritic *nn.MLP

	// Alpha is the current local-critic weight α ∈ [0,1]; it means nothing
	// without a public critic.
	Alpha float64

	// FixedAlpha, when in [0,1], pins α to a constant instead of the
	// adaptive Eq. (15) rule (the fixed-α ablation). Negative values
	// (the default) keep α adaptive.
	FixedAlpha float64

	// Loss probes recorded by the most recent RefreshAlpha call.
	LastLocalLoss  float64
	LastPublicLoss float64

	actorOpt  *nn.Adam
	criticOpt *nn.Adam
	publicOpt *nn.Adam
	rng       *rand.Rand
	prox      Proximal
	inf       inferScratch
	upd       updateScratch // batched update pipeline staging (see update.go)
}

// NewPPO builds a plain agent — no public critic — with freshly initialized
// networks.
func NewPPO(cfg Config, rng *rand.Rand) *PPO { return newAgent(cfg, rng, false) }

// NewDualCriticPPO builds a PFRL-DM client agent: NewPPO's actor and critic
// from the same draws, then an independently initialized public critic; α
// starts at 0.5.
func NewDualCriticPPO(cfg Config, rng *rand.Rand) *PPO { return newAgent(cfg, rng, true) }

// newAgent draws the networks in the order actor, φ, then ψ when dual, so a
// plain and a dual-critic agent built from one seed share actor and φ bit
// for bit (TestSharedInitAcrossKinds).
func newAgent(cfg Config, rng *rand.Rand, dual bool) *PPO {
	cfg = cfg.withDefaults()
	p := &PPO{
		Cfg:        cfg,
		Actor:      nn.NewMLP(rng, "actor", cfg.actorSizes(), nn.ActTanh, 0.01),
		Critic:     nn.NewMLP(rng, "critic", cfg.criticSizes(), nn.ActTanh, 1.0),
		FixedAlpha: -1,
		rng:        rng,
	}
	p.actorOpt = nn.NewAdam(p.Actor, cfg.ActorLR)
	p.criticOpt = nn.NewAdam(p.Critic, cfg.CriticLR)
	if dual {
		p.PublicCritic = nn.NewMLP(rng, "critic.public", cfg.criticSizes(), nn.ActTanh, 1.0)
		p.publicOpt = nn.NewAdam(p.PublicCritic, cfg.CriticLR)
		p.Alpha = 0.5
	}
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

// Value returns the critic's estimate V(state): V_φ for a plain agent, the
// blend of Eq. (14) with a public critic.
func (p *PPO) Value(state []float64) float64 {
	x := p.inf.setState(state)
	v := p.Critic.Infer(p.inf.valueBuf(), x).Data[0]
	if p.PublicCritic == nil {
		return v
	}
	vp := p.PublicCritic.Infer(p.inf.value2Buf(), x).Data[0]
	return p.Alpha*v + (1-p.Alpha)*vp
}

// pinned reports whether FixedAlpha overrides the adaptive Eq. (15) rule.
func (p *PPO) pinned() bool { return p.FixedAlpha >= 0 && p.FixedAlpha <= 1 }

// RefreshAlpha recomputes α from the two critics' losses on buf (Eq. 15):
//
//	α = e^{−L_φ} / (e^{−L_φ} + e^{−L_ψ})
//
// The paper calls for this "each time the model parameters change": after
// every local update and after receiving a global model. An empty buffer
// leaves α unchanged, and so does an agent without a public critic.
func (p *PPO) RefreshAlpha(buf *Buffer) {
	if p.PublicCritic == nil || buf.Len() == 0 {
		return
	}
	states, returns := stageEpisode(buf, p.Cfg.Gamma)
	lPhi := stagedMSE(p.Critic, states, returns)
	lPsi := stagedMSE(p.PublicCritic, states, returns)
	tensor.Put(states)
	p.LastLocalLoss, p.LastPublicLoss = lPhi, lPsi
	if p.pinned() {
		p.Alpha = p.FixedAlpha
		return
	}
	// Eq. (15) applied to relative losses: raw value-MSE magnitudes depend
	// on the return scale (hundreds in this environment), which would
	// saturate the softmax into a hard 0/1 switch. Dividing both losses by
	// their mean makes α scale-invariant while preserving the formula —
	// equal losses still give α = 0.5 and the better critic still
	// dominates smoothly.
	scale := (lPhi + lPsi) / 2
	if scale < 1e-12 {
		p.Alpha = 0.5
		return
	}
	ePhi := math.Exp(-lPhi / scale)
	ePsi := math.Exp(-lPsi / scale)
	p.Alpha = ePhi / (ePhi + ePsi)
}

// LoadPublicCritic installs a (personalized) public critic received from
// the server, resets ψ's optimizer moments (its parameters jumped), and
// refreshes α against buf when provided. A plain agent has no ψ to install
// into and reports that.
func (p *PPO) LoadPublicCritic(flat []float64, buf *Buffer) error {
	if p.PublicCritic == nil {
		return errors.New("rl: agent has no public critic")
	}
	if err := nn.LoadFlatParams(p.PublicCritic, flat); err != nil {
		return err
	}
	p.publicOpt.Reset()
	if buf != nil {
		p.RefreshAlpha(buf)
	}
	return nil
}

// valueLoss builds the critic regression loss: the mean squared error
// against the return targets.
func valueLoss(pred, targets *autograd.Value) *autograd.Value {
	return autograd.Mean(autograd.Square(autograd.Sub(pred, targets)))
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
