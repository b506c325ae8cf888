package fed

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fedcore"
)

func randomUploads(seed int64, k, dim int) []Payload {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Payload, k)
	for i := range out {
		out[i] = make(Payload, dim)
		for d := range out[i] {
			out[i][d] = rng.NormFloat64() * 0.1
		}
	}
	return out
}

func TestSecureFedAvgMatchesFedAvg(t *testing.T) {
	uploads := randomUploads(1, 4, 200)
	_, secure := NewSecureFedAvg(7).Aggregate(uploads)
	_, plain := FedAvg{}.Aggregate(uploads)
	for d := range plain {
		if math.Abs(secure[d]-plain[d]) > 1e-9 {
			t.Fatalf("secure mean diverges at %d: %v vs %v", d, secure[d], plain[d])
		}
	}
}

func TestSecureFedAvgMasksHideIndividuals(t *testing.T) {
	uploads := randomUploads(2, 3, 500)
	agg := NewSecureFedAvg(9)
	agg.Aggregate(uploads)
	// Each masked upload must be far from the raw upload — the server
	// can't read individual models.
	for i := range uploads {
		dist := 0.0
		for d := range uploads[i] {
			diff := agg.LastMasked[i][d] - uploads[i][d]
			dist += diff * diff
		}
		rms := math.Sqrt(dist / float64(len(uploads[i])))
		if rms < maskScale/2 {
			t.Fatalf("upload %d insufficiently masked: rms distance %v", i, rms)
		}
	}
}

func TestSecureFedAvgDeterministicForSeed(t *testing.T) {
	uploads := randomUploads(3, 3, 50)
	_, g1 := NewSecureFedAvg(5).Aggregate(uploads)
	_, g2 := NewSecureFedAvg(5).Aggregate(uploads)
	for d := range g1 {
		if g1[d] != g2[d] {
			t.Fatal("same seed must give identical aggregates")
		}
	}
}

func TestSecureFedAvgSingleClient(t *testing.T) {
	uploads := randomUploads(4, 1, 20)
	_, g := NewSecureFedAvg(1).Aggregate(uploads)
	// No pairs to mask with; the mean is the upload itself.
	for d := range g {
		if g[d] != uploads[0][d] {
			t.Fatal("single-client secure aggregation should be identity")
		}
	}
}

func TestSecureFedAvgInFederation(t *testing.T) {
	clients := []*Client{newPPOClient(t, 0, 100), newPPOClient(t, 1, 101), newPPOClient(t, 2, 102)}
	f, err := New(clients, ActorCriticTransport{}, NewSecureFedAvg(11),
		Options{K: 3, CommEvery: 1, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RunRound(); err != nil {
		t.Fatal(err)
	}
	// All clients end up synchronized on the (securely computed) mean.
	tr := ActorCriticTransport{}
	ref := mustUpload(t, tr, clients[0])
	for _, c := range clients[1:] {
		got := mustUpload(t, tr, c)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatal("clients diverged under secure aggregation")
			}
		}
	}
}

func TestFedProxTransportAnchorsClients(t *testing.T) {
	clients := []*Client{newPPOClient(t, 0, 110), newPPOClient(t, 1, 111)}
	tr := FedProxTransport{Mu: 0.1}
	f, err := New(clients, tr, FedAvg{}, Options{K: 2, CommEvery: 1, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RunRound(); err != nil {
		t.Fatal(err)
	}
	if tr.PayloadSize(clients[0]) != (ActorCriticTransport{}).PayloadSize(clients[0]) {
		t.Fatal("FedProx payload should match the plain transport")
	}
}

// secureFedAvgReference is SecureFedAvg.Aggregate as it was before the
// masking moved into arena views, kept verbatim: a fresh PRG per pair, k
// masked copies, k personalized copies.
type secureFedAvgReference struct {
	Seed       int64
	LastMasked []Payload
}

func (s *secureFedAvgReference) Aggregate(uploads []Payload) ([]Payload, Payload) {
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

// TestSecureFedAvgMatchesAllocatingReference pins the arena body to the
// allocating one bit for bit — global, personalized and masked payloads —
// over rounds of changing K on one reused arena and through Aggregate, and
// holds LastMasked apart from the views the arena's Alias rewrites.
func TestSecureFedAvgMatchesAllocatingReference(t *testing.T) {
	requireBits := func(what string, got, want Payload) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
		}
		for d := range want {
			if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
				t.Fatalf("%s[%d] = %v, want %v (bitwise)", what, d, got[d], want[d])
			}
		}
	}
	const dim = 97
	pooled, owned := NewSecureFedAvg(21), NewSecureFedAvg(21)
	var arena fedcore.PayloadArena
	for round, k := range []int{3, 8, 1, 5, 8} {
		uploads := randomUploads(int64(60+round), k, dim)
		ref := &secureFedAvgReference{Seed: 21}
		wantPers, wantGlobal := ref.Aggregate(uploads)
		for _, tc := range []struct {
			name string
			agg  *SecureFedAvg
			run  func() ([]Payload, Payload)
		}{
			{"AggregateInto", pooled, func() ([]Payload, Payload) { return pooled.AggregateInto(uploads, &arena) }},
			{"Aggregate", owned, func() ([]Payload, Payload) { return owned.Aggregate(uploads) }},
		} {
			gotPers, gotGlobal := tc.run()
			where := fmt.Sprintf("round %d (K=%d) %s", round, k, tc.name)
			requireBits(where+" global", gotGlobal, wantGlobal)
			if len(gotPers) != k || len(tc.agg.LastMasked) != k {
				t.Fatalf("%s: %d personalized, %d masked payloads, want %d", where, len(gotPers), len(tc.agg.LastMasked), k)
			}
			for i := range wantPers {
				requireBits(fmt.Sprintf("%s personalized[%d]", where, i), gotPers[i], wantPers[i])
				requireBits(fmt.Sprintf("%s LastMasked[%d]", where, i), tc.agg.LastMasked[i], ref.LastMasked[i])
			}
			if &tc.agg.LastMasked[0] == &gotPers[0] {
				t.Fatalf("%s: LastMasked shares its backing array with the returned views", where)
			}
		}
	}
}
