package fed

import (
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
	// tests (a real deployment would never expose these anywhere else).
	LastMasked []Payload
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

// Aggregate implements Aggregator: it masks each upload with the pairwise
// streams (simulating what the clients would send), averages the masked
// payloads, and returns the same global to every participant.
func (s *SecureFedAvg) Aggregate(uploads []Payload) ([]Payload, Payload) {
	k := len(uploads)
	if k == 0 {
		panic("fed: aggregate of zero uploads")
	}
	dim := len(uploads[0])

	masked := make([]Payload, k)
	for i := range masked {
		masked[i] = append(Payload(nil), uploads[i]...)
	}
	// Pairwise masks: client i adds, client j (> i) subtracts.
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			prg := rand.New(rand.NewSource(s.Seed ^ (int64(i)<<32 | int64(j))))
			for d := 0; d < dim; d++ {
				m := maskScale * prg.NormFloat64()
				masked[i][d] += m
				masked[j][d] -= m
			}
		}
	}
	s.LastMasked = masked

	// The server only ever touches the masked payloads.
	global := make(Payload, dim)
	fedcore.ReduceMeanInto(global, masked)
	personalized := make([]Payload, k)
	for i := range personalized {
		personalized[i] = append(Payload(nil), global...)
	}
	return personalized, global
}
