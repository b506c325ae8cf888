package fed

import (
	"fmt"

	"repro/internal/attn"
	"repro/internal/fedcore"
)

// Aggregator combines the participating clients' uploads. Aggregate returns
// one personalized payload per upload (same order) plus the new global
// payload stored on the server for non-participants and late joiners. It is
// the round engine's interface; this package provides the concrete
// strategies (FedAvg, MFPO momentum, PFRL-DM attention, static weights).
type Aggregator = fedcore.Aggregator

// FedAvg is the classic parameter-averaging aggregator (McMahan et al.):
// every participant receives the same global mean.
type FedAvg struct{}

// Name implements Aggregator.
func (FedAvg) Name() string { return "FedAvg" }

// Aggregate implements Aggregator.
func (a FedAvg) Aggregate(uploads []Payload) ([]Payload, Payload) {
	return fedcore.AggregateOwned(a, uploads)
}

// AggregateInto implements fedcore.IntoAggregator: the mean reduces into the
// arena's global buffer and every personalized view aliases it — FedAvg
// hands all participants the identical model. Results are valid until the
// arena's next round.
func (FedAvg) AggregateInto(uploads []Payload, arena *fedcore.PayloadArena) ([]Payload, Payload) {
	global := arena.Global(len(uploads[0]))
	fedcore.ReduceMeanInto(global, uploads)
	return arena.Alias(len(uploads), global), global
}

// Momentum is the server-side momentum aggregator standing in for MFPO
// (Yue et al., INFOCOM'24): the server keeps a velocity over the aggregate
// update direction, preserving the influence of past rounds —
// exactly the behaviour the paper credits for MFPO's steady-but-suboptimal
// curves in heterogeneous federations (§5.2).
//
//	Δ_t = mean(uploads) − g_t
//	v_t = β·v_{t−1} + Δ_t
//	g_{t+1} = g_t + v_t
type Momentum struct {
	// Beta is the momentum coefficient (0.9 in the experiments).
	Beta float64

	global   Payload
	velocity Payload
}

// NewMomentum returns a server-momentum aggregator with coefficient beta.
func NewMomentum(beta float64) *Momentum { return &Momentum{Beta: beta} }

// Name implements Aggregator.
func (*Momentum) Name() string { return "MFPO" }

// Aggregate implements Aggregator.
func (m *Momentum) Aggregate(uploads []Payload) ([]Payload, Payload) {
	return fedcore.AggregateOwned(m, uploads)
}

// AggregateInto implements fedcore.IntoAggregator. The mean reduces into the
// arena buffer, the velocity/global update runs in place, and the
// personalized views alias the aggregator's own global — momentum hands
// everyone the same model. Results are valid until the next round; the
// engine copy-installs the global.
func (m *Momentum) AggregateInto(uploads []Payload, arena *fedcore.PayloadArena) ([]Payload, Payload) {
	mean := arena.Global(len(uploads[0]))
	fedcore.ReduceMeanInto(mean, uploads)
	m.step(mean)
	return arena.Alias(len(uploads), m.global), m.global
}

// step applies the velocity update (or bootstraps state on first contact).
func (m *Momentum) step(mean Payload) {
	if m.global == nil {
		m.global = append(Payload(nil), mean...)
		m.velocity = make(Payload, len(mean))
		return
	}
	if len(mean) != len(m.global) {
		panic(fmt.Sprintf("fed: momentum dim changed %d -> %d", len(m.global), len(mean)))
	}
	beta := m.Beta
	g, v := m.global, m.velocity
	for j := range g {
		delta := mean[j] - g[j]
		v[j] = beta*v[j] + delta
		g[j] += v[j]
	}
}

// Attention is PFRL-DM's personalizing aggregator (§4.4, Algorithm 1
// lines 9–15): multi-head attention weights over the uploaded critics give
// each participant its own mixture ψ_k = Σ_j W[k][j]·ψ_j (Eq. 21), and the
// stored global model is the mean of the personalized models (Eq. 22).
type Attention struct {
	Gen *attn.Aggregator

	// LastWeights is the most recent K×K attention matrix (exposed for the
	// Figure-11 heatmap harness).
	LastWeights [][]float64
}

// NewAttention returns an attention aggregator with the given seed for the
// head projections.
func NewAttention(seed int64) *Attention {
	return &Attention{Gen: attn.NewAggregator(seed)}
}

// Name implements Aggregator.
func (*Attention) Name() string { return "PFRL-DM" }

// Aggregate implements Aggregator.
func (a *Attention) Aggregate(uploads []Payload) ([]Payload, Payload) {
	return fedcore.AggregateOwned(a, uploads)
}

// AggregateInto implements fedcore.IntoAggregator: the Eq. 21 mix writes
// into arena-carved views and the Eq. 22 mean (ψ_G = mean of the
// personalized models) into the arena global. The attention weight
// computation is the larger part of the call, not the data plane: its
// O(K·dim·d_k) products read the heads × dim × d_k seed-constant projection
// values, which attn draws once per process and decodes panel by panel (DESIGN
// §8 "Swarm drive"). Results are valid until the arena's next round.
func (a *Attention) AggregateInto(uploads []Payload, arena *fedcore.PayloadArena) ([]Payload, Payload) {
	w := a.Gen.Weights(uploads)
	a.LastWeights = w
	k := len(uploads)
	dim := len(uploads[0])
	personalized := arena.Payloads(k, dim)
	fedcore.WeightedMixInto(personalized, w, uploads)
	global := arena.Global(dim)
	fedcore.ReduceMeanInto(global, personalized)
	return personalized, global
}

// StaticWeights applies a fixed row-stochastic weight matrix — the
// Fed-Diff-weight / Fed-Same2-weight configurations of §3.3 (Figure 10),
// where one client is manually told to pay more attention to another.
type StaticWeights struct {
	// W[i][j] is the weight participant i assigns to participant j's
	// upload. Rows should sum to 1.
	W [][]float64
}

// Name implements Aggregator.
func (StaticWeights) Name() string { return "static-weights" }

// Aggregate implements Aggregator.
func (s StaticWeights) Aggregate(uploads []Payload) ([]Payload, Payload) {
	return fedcore.AggregateOwned(s, uploads)
}

// AggregateInto implements fedcore.IntoAggregator with the same arena-backed
// mix-then-mean shape as Attention, minus the weight generation.
func (s StaticWeights) AggregateInto(uploads []Payload, arena *fedcore.PayloadArena) ([]Payload, Payload) {
	k := len(uploads)
	if len(s.W) != k {
		panic(fmt.Sprintf("fed: static weight matrix is %dx? for %d uploads", len(s.W), k))
	}
	dim := len(uploads[0])
	personalized := arena.Payloads(k, dim)
	fedcore.WeightedMixInto(personalized, s.W, uploads)
	global := arena.Global(dim)
	fedcore.ReduceMeanInto(global, personalized)
	return personalized, global
}
