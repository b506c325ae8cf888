package fed

import (
	"math"
	"math/rand"
	"testing"
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
