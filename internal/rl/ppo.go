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
// clip ε = 0.2. The discount, the GAE λ and the gradient-norm clip are the
// constants gamma, lambda and maxGradNorm (update.go).
type Config struct {
	StateDim   int
	NumActions int
	Hidden     []int // hidden layer sizes; nil means [64]

	ActorLR  float64
	CriticLR float64
	Clip     float64 // ε in Eq. (12)
	EntCoef  float64 // entropy bonus coefficient
	// UpdateEpochs is Ω': optimization passes over the batch per Update.
	UpdateEpochs int
	MiniBatch    int
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
		Clip:         0.2,
		EntCoef:      0.01,
		UpdateEpochs: 4,
		MiniBatch:    64,
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

	// localLoss and publicLoss memoize CriticLosses for φ and ψ.
	localLoss, publicLoss lossMemo

	actorOpt  *nn.Adam
	criticOpt *nn.Adam
	publicOpt *nn.Adam
	rng       *rand.Rand
	inf       inferScratch
	val       valueScratch
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
// inference fast path: the gradient-free MLP.Infer on a view of state plus
// the agent's reusable scratch (see inferScratch), producing logits bitwise
// identical to the tape-based forward pass.
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

// Estimator returns the agent's value function as it stands: φ, and ψ
// blended with the current α when there is a public critic (Eq. 14). It
// reads α, and which networks the critics are, now; their weights are read
// when Values runs, so no Update or install may run while it is in use. It
// shares its scratch with the next Estimator call, and none with
// SelectAction or GreedyAction.
func (p *PPO) Estimator() ValueEstimator {
	p.val.critic, p.val.public, p.val.alpha = p.Critic, p.PublicCritic, p.Alpha
	return &p.val
}

// pinned reports whether FixedAlpha overrides the adaptive Eq. (15) rule.
func (p *PPO) pinned() bool { return p.FixedAlpha >= 0 && p.FixedAlpha <= 1 }

// RefreshAlpha recomputes α from the two critics' losses on buf (Eq. 15):
//
//	α = e^{−L_φ} / (e^{−L_φ} + e^{−L_ψ})
//
// The paper calls for this "each time the model parameters change": after
// every local update and after receiving a global model. The losses come
// from CriticLosses, so after an install only ψ's is computed afresh. An
// empty buffer leaves α unchanged, and so does an agent without a public
// critic.
func (p *PPO) RefreshAlpha(buf *Buffer) {
	if p.PublicCritic == nil || buf.Len() == 0 {
		return
	}
	lPhi, lPsi := p.CriticLosses(buf)
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

// lossKey names what a critic loss was computed from: the network at its
// nn.Generation and the buffer at its generation (γ is fixed with Cfg).
type lossKey struct {
	net    *nn.MLP
	netGen uint64
	buf    *Buffer
	bufGen uint64
}

// lossMemo is one critic's last computed loss under its key.
type lossMemo struct {
	key  lossKey
	loss float64
}

// CriticLosses returns the mean squared error of φ and — with a public
// critic — of ψ against the discounted returns of buf: the losses of Eq. (15)
// and of the Fig. 9 probe. Each is computed once per (network generation,
// buffer generation) and then read from a memo, so the φ half of the α
// refresh after an install, and a probe of a critic that has not changed
// since, cost nothing; the memo's value is the fresh computation's, bit for
// bit. A plain agent's public loss, and both losses on an empty buffer, are 0.
func (p *PPO) CriticLosses(buf *Buffer) (local, public float64) {
	if buf.Len() == 0 {
		return 0, 0
	}
	staleReturns := true
	loss := func(m *lossMemo, net *nn.MLP) float64 {
		k := lossKey{net, nn.Generation(net), buf, buf.gen}
		if m.key != k {
			if staleReturns {
				p.upd.returns = buf.ReturnsInto(gamma, p.upd.returns)
				staleReturns = false
			}
			*m = lossMemo{k, criticMSE(net, buf, p.upd.returns)}
		}
		return m.loss
	}
	local = loss(&p.localLoss, p.Critic)
	if p.PublicCritic != nil {
		public = loss(&p.publicLoss, p.PublicCritic)
	}
	return local, public
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
// returns of the trajectories in buf, with nothing memoized.
func CriticMSE(critic *nn.MLP, buf *Buffer, gamma float64) float64 {
	if buf.Len() == 0 {
		return 0
	}
	return criticMSE(critic, buf, buf.Returns(gamma))
}

// lossBlockRows is how many states criticMSE stages at once: a minibatch's
// worth.
const lossBlockRows = 64

// criticMSE is the critic's mean squared error against returns over buf's
// states, evaluated lossBlockRows states at a time, each block's live
// values scattered from the buffer's rows into one block borrowed from
// the tensor pool (borrowStates), whose void positions are written once.
// A row's prediction does not depend on the rows beside it and the squared
// errors add in row order, so the result is the bits of one Infer over the
// whole buffer, while the staging stays a minibatch's size however long
// the buffer is.
func criticMSE(critic *nn.MLP, buf *Buffer, returns []float64) float64 {
	n := buf.Len()
	rows := min(n, lossBlockRows)
	states := borrowStates(rows, buf.width())
	buf.voidRows(states)
	v := tensor.DefaultPool().GetUninit(rows, 1)
	mse := 0.0
	for lo := 0; lo < n; lo += rows {
		k := min(rows, n-lo)
		block, pred := viewRows(states, k), viewRows(v, k)
		for i := range k {
			buf.scatter(block.Row(i), lo+i)
		}
		critic.Infer(pred, block)
		for i, y := range pred.Data {
			d := y - returns[lo+i]
			mse += d * d
		}
	}
	tensor.Put(states)
	tensor.Put(v)
	return mse / float64(n)
}
