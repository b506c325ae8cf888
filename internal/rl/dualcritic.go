package rl

import (
	"math"
	"math/rand"

	"repro/internal/autograd"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// DualCriticPPO is the client-side algorithm of PFRL-DM (§4.3). It keeps
// two critics:
//
//   - LocalCritic (φ): never leaves the client; preserves local experience.
//   - PublicCritic (ψ): periodically replaced by the server's personalized
//     aggregate; the only network that travels.
//
// State values blend the two: V(s) = α·V_φ(s) + (1−α)·V_ψ(s) (Eq. 14), with
// α adapted from the critics' losses on the current trajectory buffer via a
// two-way softmax (Eq. 15) so whichever critic currently evaluates the
// client's environment better dominates. Both critics are regressed toward
// the observed returns on every update (Eqs. 16–17).
type DualCriticPPO struct {
	Cfg          Config
	Actor        *nn.MLP
	LocalCritic  *nn.MLP
	PublicCritic *nn.MLP

	// Alpha is the current local-critic weight α ∈ [0,1].
	Alpha float64

	// FixedAlpha, when in [0,1], pins α to a constant instead of the
	// adaptive Eq. (15) rule (the fixed-α ablation). Negative values
	// (the default) keep α adaptive.
	FixedAlpha float64

	actorOpt  *nn.Adam
	localOpt  *nn.Adam
	publicOpt *nn.Adam
	rng       *rand.Rand
	inf       inferScratch
	upd       updateScratch // batched update pipeline staging (see update.go)

	// Loss probes recorded by the most recent RefreshAlpha call.
	LastLocalLoss  float64
	LastPublicLoss float64
}

// NewDualCriticPPO builds a PFRL-DM client agent. Both critics start from
// independent random initializations; α starts at 0.5.
func NewDualCriticPPO(cfg Config, rng *rand.Rand) *DualCriticPPO {
	cfg = cfg.withDefaults()
	d := &DualCriticPPO{
		Cfg:          cfg,
		Actor:        nn.NewMLP(rng, "actor", cfg.actorSizes(), nn.ActTanh, 0.01),
		LocalCritic:  nn.NewMLP(rng, "critic.local", cfg.criticSizes(), nn.ActTanh, 1.0),
		PublicCritic: nn.NewMLP(rng, "critic.public", cfg.criticSizes(), nn.ActTanh, 1.0),
		Alpha:        0.5,
		FixedAlpha:   -1,
		rng:          rng,
	}
	d.actorOpt = nn.NewAdam(d.Actor, cfg.ActorLR)
	d.localOpt = nn.NewAdam(d.LocalCritic, cfg.CriticLR)
	d.publicOpt = nn.NewAdam(d.PublicCritic, cfg.CriticLR)
	return d
}

// SelectAction samples an action and returns it with its log-probability.
// Like PPO.SelectAction it runs on the zero-allocation inference fast path.
func (d *DualCriticPPO) SelectAction(state []float64) (action int, logProb float64) {
	dist := d.inf.policyDist(d.Actor, state, d.Cfg.NumActions, nil)
	a := dist.Sample(d.rng)
	return a, dist.LogProb(a)
}

// GreedyAction returns the most probable action among those allowed by mask
// (see PPO.GreedyAction).
func (d *DualCriticPPO) GreedyAction(state []float64, mask []bool) int {
	return d.inf.policyDist(d.Actor, state, d.Cfg.NumActions, mask).Argmax()
}

// Value returns the blended estimate of Eq. (14).
func (d *DualCriticPPO) Value(state []float64) float64 {
	x := d.inf.setState(state)
	vl := d.LocalCritic.Infer(d.inf.valueBuf(), x).Data[0]
	vp := d.PublicCritic.Infer(d.inf.value2Buf(), x).Data[0]
	return d.Alpha*vl + (1-d.Alpha)*vp
}

// RefreshAlpha recomputes α from the two critics' losses on buf (Eq. 15):
//
//	α = e^{−L_φ} / (e^{−L_φ} + e^{−L_ψ})
//
// The paper calls for this "each time the model parameters change": after
// every local update and after receiving a global model. An empty buffer
// leaves α unchanged.
func (d *DualCriticPPO) RefreshAlpha(buf *Buffer) {
	if buf.Len() == 0 {
		return
	}
	states, returns := stageEpisode(buf, d.Cfg.Gamma)
	lPhi := stagedMSE(d.LocalCritic, states, returns)
	lPsi := stagedMSE(d.PublicCritic, states, returns)
	tensor.Put(states)
	d.LastLocalLoss, d.LastPublicLoss = lPhi, lPsi
	if d.FixedAlpha >= 0 && d.FixedAlpha <= 1 {
		d.Alpha = d.FixedAlpha
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
		d.Alpha = 0.5
		return
	}
	ePhi := math.Exp(-lPhi / scale)
	ePsi := math.Exp(-lPsi / scale)
	d.Alpha = ePhi / (ePhi + ePsi)
}

// Update runs the dual-critic PPO update: the actor uses advantages from
// the blended value estimates (recorded in buf at collection time), and the
// two critics are updated synchronously but independently, each regressed
// toward the return targets at full strength (Eqs. 16–17 — NOT through the
// blended prediction, which would starve whichever critic currently has
// low α weight and degrade the uploads other clients aggregate).
// Afterwards α is refreshed on the same buffer.
func (d *DualCriticPPO) Update(buf *Buffer) UpdateStats {
	st := &d.upd
	st.adv, st.targets = buf.GAEInto(d.Cfg.Gamma, d.Cfg.Lambda, st.adv, st.targets)
	NormalizeInPlace(st.adv)
	stats := ppoUpdate(ppoUpdateSpec{
		cfg:      d.Cfg,
		rng:      d.rng,
		scratch:  st,
		buf:      buf,
		adv:      st.adv,
		targets:  st.targets,
		actor:    d.Actor,
		actorOpt: d.actorOpt,
		criticLoss: func(tape *autograd.Tape, states, targets, oldValues *autograd.Value) *autograd.Value {
			vl := d.LocalCritic.Forward(tape, states)
			vp := d.PublicCritic.Forward(tape, states)
			lossL := valueLoss(vl, targets, oldValues, d.Cfg.ValueClip)
			lossP := valueLoss(vp, targets, oldValues, d.Cfg.ValueClip)
			return autograd.Add(lossL, lossP)
		},
		criticModules: []criticModule{
			{net: d.LocalCritic, opt: d.localOpt},
			{net: d.PublicCritic, opt: d.publicOpt},
		},
	})
	d.RefreshAlpha(buf)
	return stats
}

// PublicCriticParams serializes ψ for transmission to the server. Only the
// public critic travels (§5.2's communication-cost claim).
func (d *DualCriticPPO) PublicCriticParams() []float64 {
	return nn.FlattenParams(d.PublicCritic)
}

// LoadPublicCritic installs a (personalized) public critic received from
// the server, resets ψ's optimizer moments (its parameters jumped), and
// refreshes α against buf when provided.
func (d *DualCriticPPO) LoadPublicCritic(flat []float64, buf *Buffer) error {
	if err := nn.LoadFlatParams(d.PublicCritic, flat); err != nil {
		return err
	}
	d.publicOpt.Reset()
	if buf != nil {
		d.RefreshAlpha(buf)
	}
	return nil
}
