package fed

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fedcore"
)

// benchDim matches the public-critic payload width the frozen baselines were
// measured at (538-feature observation, 64-unit hidden layer).
const benchDim = 34561

// wireCodecs are the two codec shapes the allocation guards run: the zero
// value every figure uses, and the lossy delta tier the swarm benchmark uses,
// which adds reference rotation on the server end and adoption on the client
// ends to every round.
var wireCodecs = []struct {
	name  string
	codec fedcore.CodecConfig
}{
	{"identity", fedcore.CodecConfig{}},
	{"i8+delta", fedcore.CodecConfig{Tier: fedcore.TierI8, Delta: true}},
}

// BenchmarkUpload flattens a client's shareable networks into its warm
// upload buffer — the actor+critic of a plain agent, the public critic of a
// dual-critic one — which scripts/bench_alloc_guard.sh holds to zero
// allocs/op.
func BenchmarkUpload(b *testing.B) {
	for _, c := range uploadCases {
		b.Run(c.name, func(b *testing.B) {
			client := c.client(b)
			mustUpload(b, c.transport, client)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.transport.Upload(client); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFedAggregate measures one steady-state data-plane round through
// the product's wire session — K client ends encode, the server end decodes
// and counts, the pooled FedAvg aggregation runs, the server end frames the
// result (once: FedAvg aliases every participant to one model) and rotates K
// references, K client ends install and adopt — the composite that
// scripts/bench_alloc_guard.sh holds to zero allocs/op.
func BenchmarkFedAggregate(b *testing.B) {
	for _, c := range wireCodecs {
		for _, k := range []int{8, 64} {
			b.Run(fmt.Sprintf("%s/K%d", c.name, k), func(b *testing.B) {
				benchFedAggregate(b, k, benchDim, c.codec)
			})
		}
	}
}

func benchFedAggregate(b *testing.B, k, dim int, codec fedcore.CodecConfig) {
	rng := rand.New(rand.NewSource(7))
	uploads := make([]Payload, k)
	models := make([]Payload, k)
	ends := make([]*fedcore.WireClient, k)
	for i := range uploads {
		uploads[i] = make(Payload, dim)
		for j := range uploads[i] {
			uploads[i][j] = rng.NormFloat64()
		}
		models[i] = make(Payload, dim)
		ends[i] = fedcore.NewWireClient(codec)
	}
	srv := fedcore.NewWireServer(codec)
	agg := FedAvg{}
	var arena fedcore.PayloadArena
	// The decode storage the server end's caller owns: one per client, since
	// the aggregation reads all K at once.
	scratch := make([]Payload, k)
	round := func() {
		for i, u := range uploads {
			up, err := srv.Decode(i, ends[i].Encode(u), scratch[i])
			if err != nil {
				b.Fatal(err)
			}
			srv.Accepted(i)
			scratch[i] = up
		}
		personalized, _ := agg.AggregateInto(scratch, &arena)
		srv.NextRound()
		for i, p := range personalized {
			_, view, tag := srv.Frame(i, p)
			if err := ends[i].Install(view, tag, func(p Payload) error { copy(models[i], p); return nil }); err != nil {
				b.Fatal(err)
			}
		}
	}
	round() // warm the encoders, decode buffers, references, and arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
