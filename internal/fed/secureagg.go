package fed

import (
	"fmt"
	"math/rand"

	"repro/internal/fedcore"
)

// SecureFedAvg simulates pairwise-masked secure aggregation (Bonawitz et
// al., CCS 2017) on top of plain averaging: every pair of participants
// (i, j) shares a seed; client i adds PRG(seed_ij) to its upload and client
// j subtracts the same stream, so individual uploads look random to the
// honest-but-curious server of §3.4 while the sum — and therefore the
// FedAvg mean — is unchanged up to floating-point round-off.
//
// Note the inherent tension this makes concrete: PFRL-DM's attention
// aggregator needs the *individual* critics to compute similarity weights,
// so it cannot run under sum-only secure aggregation. The paper's threat
// model (§3.4) assumes an honest-but-curious server that may see models but
// not raw data; SecureFedAvg shows what is available when even models must
// stay hidden.
type SecureFedAvg struct {
	// Seed derives the pairwise mask seeds.
	Seed int64

	// LastMasked retains the most recent masked uploads for inspection and
	// tests (a real deployment would never expose these anywhere else). The
	// payloads live in the arena of the aggregation that masked them, valid
	// until its next round.
	LastMasked []Payload

	prg *rand.Rand // the pairwise mask stream, reseeded per pair
}

// NewSecureFedAvg returns a secure-averaging aggregator.
func NewSecureFedAvg(seed int64) *SecureFedAvg {
	return &SecureFedAvg{Seed: seed}
}

// maskScale is the standard deviation of the Gaussian masks: large relative
// to parameter values, so masked uploads carry no usable signal.
const maskScale = 10

// Name implements Aggregator.
func (*SecureFedAvg) Name() string { return "secure-fedavg" }

// Aggregate implements Aggregator.
func (s *SecureFedAvg) Aggregate(uploads []Payload) ([]Payload, Payload) {
	return fedcore.AggregateOwned(s, uploads)
}

// AggregateInto implements Aggregator: it masks each upload with the pairwise
// streams in arena-carved views (simulating what the clients would send),
// averages the masked payloads into the arena global, and hands every
// participant that same global. Results are valid until the arena's next
// round.
func (s *SecureFedAvg) AggregateInto(uploads []Payload, arena *fedcore.PayloadArena) ([]Payload, Payload) {
	k := len(uploads)
	dim := len(uploads[0])
	masked := arena.Payloads(k, dim)
	for i, u := range uploads {
		if len(u) != dim {
			panic(fmt.Sprintf("fed: upload %d has %d params, want %d", i, len(u), dim))
		}
		copy(masked[i], u)
	}
	if s.prg == nil {
		s.prg = rand.New(rand.NewSource(0))
	}
	// Pairwise masks: client i adds, client j (> i) subtracts.
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			s.prg.Seed(s.Seed ^ (int64(i)<<32 | int64(j)))
			for d := 0; d < dim; d++ {
				m := maskScale * s.prg.NormFloat64()
				masked[i][d] += m
				masked[j][d] -= m
			}
		}
	}
	// Alias below rewrites the arena's views; LastMasked keeps its own.
	s.LastMasked = append(s.LastMasked[:0], masked...)

	// The server only ever touches the masked payloads.
	global := arena.Global(dim)
	fedcore.ReduceMeanInto(global, masked)
	return arena.Alias(k, global), global
}
