package fed

import (
	"math/rand"
	"runtime"
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

func uniformWeights(k int) [][]float64 {
	w := make([][]float64, k)
	for i := range w {
		w[i] = make([]float64, k)
		for j := range w[i] {
			w[i][j] = 1.0 / float64(k)
		}
	}
	return w
}

// TestAggregateReturnsOwnedCopies pins Aggregate's ownership contract for
// every aggregator: the personalized payloads and the global share no memory
// with each other or with the aggregator's state (Momentum keeps its global
// across rounds), and a second Aggregate call leaves the first call's
// results unchanged.
func TestAggregateReturnsOwnedCopies(t *testing.T) {
	const k, dim = 4, 33

	for _, tc := range []struct {
		name string
		agg  Aggregator
	}{
		{"FedAvg", FedAvg{}},
		{"Momentum", NewMomentum(0.9)},
		{"Attention", NewAttention(11)},
		{"StaticWeights", StaticWeights{W: uniformWeights(k)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			personalized, global := tc.agg.Aggregate(randomUploads(31, k, dim))
			if len(personalized) != k || len(global) != dim {
				t.Fatalf("got %d personalized payloads, global of %d", len(personalized), len(global))
			}
			all := append(personalized[:k:k], global)
			snapshot := clonePayloads(all)
			requireUnchanged := func(when string, skip int) {
				t.Helper()
				for i, p := range all {
					for j := range p {
						if i != skip && p[j] != snapshot[i][j] {
							t.Fatalf("%s: returned payload %d changed at %d", when, i, j)
						}
					}
				}
			}

			// A second round must not reach back into the first's results.
			personalized, global = tc.agg.Aggregate(randomUploads(32, k, dim))
			requireUnchanged("second Aggregate", -1)

			// Scribbling over any one payload of either round must leave
			// every other one — and the aggregator's state — untouched.
			all = append(append(all, personalized...), global)
			snapshot = clonePayloads(all)
			for i, p := range all {
				for j := range p {
					p[j] = -12345
				}
				requireUnchanged("overwriting a returned payload", i)
				if m, ok := tc.agg.(*Momentum); ok {
					for j, v := range snapshot[len(snapshot)-1] {
						if m.global[j] != v {
							t.Fatalf("overwriting returned payload %d reached Momentum's state at %d", i, j)
						}
					}
				}
				copy(p, snapshot[i])
			}
		})
	}
}

func clonePayloads(ps []Payload) []Payload {
	out := make([]Payload, len(ps))
	for i, p := range ps {
		out[i] = append(Payload(nil), p...)
	}
	return out
}

// TestMomentumStateIndependentOfArena drives two Momentum instances through
// the same rounds — one through Aggregate (a throwaway arena per call), one
// through AggregateInto on a single reused arena — and requires bit-equal
// results every round: the velocity/global state must live in the
// aggregator, never in arena buffers the next round rewrites.
func TestMomentumStateIndependentOfArena(t *testing.T) {
	const k, dim, rounds = 5, 257, 3
	owned, pooled := NewMomentum(0.9), NewMomentum(0.9)
	var arena fedcore.PayloadArena
	for round := 0; round < rounds; round++ {
		uploads := randomUploads(int64(40+round), k, dim)
		wantPers, wantGlobal := owned.Aggregate(uploads)
		gotPers, gotGlobal := pooled.AggregateInto(uploads, &arena)
		if len(gotPers) != len(wantPers) {
			t.Fatalf("round %d: %d personalized payloads, want %d", round, len(gotPers), len(wantPers))
		}
		for i := range wantPers {
			for j := range wantPers[i] {
				if gotPers[i][j] != wantPers[i][j] {
					t.Fatalf("round %d: personalized[%d][%d] = %v, want %v (bitwise)",
						round, i, j, gotPers[i][j], wantPers[i][j])
				}
			}
		}
		for j := range wantGlobal {
			if gotGlobal[j] != wantGlobal[j] {
				t.Fatalf("round %d: global[%d] = %v, want %v (bitwise)", round, j, gotGlobal[j], wantGlobal[j])
			}
		}
	}
}

// TestEngineRoundSteadyStateAllocs holds the engine's aggregation step — the
// arena-backed AggregatePartialInto the round engine calls every commit — to
// zero allocations once warm at the paper's payload width, for the
// aggregators whose data plane is pure reduction: FedAvg and Momentum
// (ReduceMeanInto) and StaticWeights (WeightedMixInto + ReduceMeanInto).
// Attention allocates its O(K²) weight matrix by design.
func TestEngineRoundSteadyStateAllocs(t *testing.T) {
	const k, dim = 8, benchDim
	uploads := randomUploads(17, k, dim)
	prevGlobal := make(Payload, dim)

	for _, tc := range []struct {
		name string
		agg  Aggregator
	}{
		{"FedAvg", FedAvg{}},
		{"Momentum", NewMomentum(0.9)},
		{"StaticWeights", StaticWeights{W: uniformWeights(k)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var arena fedcore.PayloadArena
			if n := mallocsPerRun(20, func() {
				fedcore.AggregatePartialInto(tc.agg, uploads, prevGlobal, &arena)
			}); n != 0 {
				t.Fatalf("warm %s round allocates %v/op; want 0", tc.name, n)
			}
		})
	}
}

// mallocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1) pin: the
// zero-alloc round must hold at whatever width the process runs, which is
// where a goroutine fan-out inside the reduce would show. Like AllocsPerRun
// it warms f once and divides in integers, so stray runtime allocations
// round away.
func mallocsPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// TestBarrierRoundSteadyStateAllocs holds a whole barrier round on the
// engine — K Submits staged into the pooled buffers, the close, the commit —
// to zero allocations once warm, and then the same round through a real
// Federation.RunRound (wire session included, both guard codecs) to what the
// adapter allocates per round whatever K is: the pull-side draw's copy of the
// candidates and the exported Global and Reports mirrors. Anything per client
// — a decode buffer, a reference, a frame, the install closure — would show
// as K more.
func TestBarrierRoundSteadyStateAllocs(t *testing.T) {
	const k, dim = 8, benchDim
	uploads := randomUploads(18, k, dim)
	e, err := fedcore.NewAsync(FedAvg{}, make(Payload, dim), fedcore.AsyncOptions{
		Options: fedcore.Options{K: k, Clients: k, Seed: 1}, Barrier: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq := 0
	if n := mallocsPerRun(20, func() {
		seq++
		for id, u := range uploads {
			if _, err := e.Submit(id, seq, 0, u); err != nil {
				t.Fatal(err)
			}
		}
		e.CloseRound(false)
	}); n != 0 {
		t.Fatalf("warm barrier round allocates %v/op; want 0", n)
	}
	if e.Round() != 21 {
		t.Fatalf("%d rounds committed, want 21", e.Round())
	}

	const perRound = 3
	for _, c := range wireCodecs {
		t.Run(c.name, func(t *testing.T) {
			tr := &stubTransport{uploads: uploads, models: make([]Payload, k)}
			clients := make([]*Client, k)
			for i := range clients {
				// No agent, no buffer: the loss probes read 0, and their
				// per-commit appends are given room so they never grow.
				clients[i] = &Client{ID: i, CriticLossPre: make([]float64, 0, 32), CriticLossPost: make([]float64, 0, 32)}
				tr.models[i] = make(Payload, dim)
			}
			f, err := New(clients, tr, FedAvg{}, Options{K: k, Seed: 1, Codec: c.codec})
			if err != nil {
				t.Fatal(err)
			}
			f.CommEvery = 0 // no local training: the round is the data plane alone
			if n := mallocsPerRun(20, func() {
				if err := f.RunRound(); err != nil {
					t.Fatal(err)
				}
			}); n > perRound {
				t.Fatalf("warm RunRound allocates %v/op at K=%d; want at most %d, none of them per client", n, k, perRound)
			}
			if want := int64(21 * k * fedcore.FrameLen(c.codec.Tier, dim)); f.Rounds != 21 || f.Comm().UploadBytes != want || f.Comm().DownloadBytes != want {
				t.Fatalf("rounds %d comm %+v, want 21 rounds of %d frames each way", f.Rounds, f.Comm(), k)
			}
		})
	}
}

// stubTransport uploads fixed payloads and installs into plain vectors, so a
// Federation round runs without agents.
type stubTransport struct {
	uploads, models []Payload
}

func (*stubTransport) Name() string                          { return "stub" }
func (s *stubTransport) Upload(c *Client) (Payload, error)   { return s.uploads[c.ID], nil }
func (s *stubTransport) Download(c *Client, p Payload) error { copy(s.models[c.ID], p); return nil }
func (s *stubTransport) PayloadSize(c *Client) int           { return len(s.uploads[c.ID]) }
