package fed

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/fedcore"
	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/workload"
)

// TestAggregateRejectsBadUploads: zero uploads and ragged uploads are
// programming errors every aggregator reports by panicking, never by
// returning a short or garbage payload.
func TestAggregateRejectsBadUploads(t *testing.T) {
	for _, agg := range []Aggregator{
		FedAvg{}, NewMomentum(0.9), NewAttention(5),
		StaticWeights{W: [][]float64{{0.5, 0.5}, {0.5, 0.5}}}, NewSecureFedAvg(1),
	} {
		for _, uploads := range [][]Payload{nil, {{1}, {1, 2}}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s accepted %v", agg.Name(), uploads)
					}
				}()
				agg.Aggregate(uploads)
			}()
		}
	}
}

func TestFedAvgAggregator(t *testing.T) {
	p, g := FedAvg{}.Aggregate([]Payload{{0, 0}, {2, 4}})
	if g[0] != 1 || g[1] != 2 {
		t.Fatalf("global %v", g)
	}
	for _, pi := range p {
		if pi[0] != 1 || pi[1] != 2 {
			t.Fatal("FedAvg must send the same global to everyone")
		}
	}
	// Personalized payloads must be independent copies.
	p[0][0] = 99
	if p[1][0] == 99 || g[0] == 99 {
		t.Fatal("payload aliasing")
	}
}

func TestMomentumAggregatorPreservesDirection(t *testing.T) {
	m := NewMomentum(0.9)
	_, g0 := m.Aggregate([]Payload{{0}})
	if g0[0] != 0 {
		t.Fatalf("first round global %v", g0)
	}
	_, g1 := m.Aggregate([]Payload{{1}}) // delta=1, vel=1, global=1
	if g1[0] != 1 {
		t.Fatalf("second round global %v", g1)
	}
	// Third round with uploads equal to current global: plain averaging
	// would stall, momentum keeps moving (vel = 0.9).
	_, g2 := m.Aggregate([]Payload{{1}})
	if math.Abs(g2[0]-1.9) > 1e-12 {
		t.Fatalf("momentum should overshoot to 1.9, got %v", g2[0])
	}
}

func TestAttentionAggregatorMixes(t *testing.T) {
	a := NewAttention(5)
	uploads := []Payload{
		make(Payload, 64), make(Payload, 64), make(Payload, 64),
	}
	rng := rand.New(rand.NewSource(1))
	base := make([]float64, 64)
	for i := range base {
		base[i] = rng.NormFloat64()
	}
	for c := range uploads {
		for i := range uploads[c] {
			uploads[c][i] = base[i] + 0.1*rng.NormFloat64()
		}
	}
	personalized, global := a.Aggregate(uploads)
	if len(personalized) != 3 || len(global) != 64 {
		t.Fatal("shapes wrong")
	}
	if a.LastWeights == nil || len(a.LastWeights) != 3 {
		t.Fatal("LastWeights not recorded")
	}
	// Each personalized payload must be the weight-mix of uploads.
	for i := range personalized {
		for d := 0; d < 64; d++ {
			want := 0.0
			for j := range uploads {
				want += a.LastWeights[i][j] * uploads[j][d]
			}
			if math.Abs(personalized[i][d]-want) > 1e-9 {
				t.Fatalf("personalized[%d][%d] mismatch", i, d)
			}
		}
	}
	// Eq. 22: global = mean of personalized.
	for d := 0; d < 64; d++ {
		want := (personalized[0][d] + personalized[1][d] + personalized[2][d]) / 3
		if math.Abs(global[d]-want) > 1e-9 {
			t.Fatal("global is not the personalized mean")
		}
	}
}

func TestStaticWeights(t *testing.T) {
	s := StaticWeights{W: [][]float64{{0.8, 0.2}, {0.5, 0.5}}}
	p, _ := s.Aggregate([]Payload{{10}, {20}})
	if math.Abs(p[0][0]-12) > 1e-12 || math.Abs(p[1][0]-15) > 1e-12 {
		t.Fatalf("static mix wrong: %v", p)
	}
}

func smallConfig() cloudsim.Config {
	cfg := cloudsim.DefaultConfig([]cloudsim.VMSpec{{CPU: 4, Mem: 16}, {CPU: 8, Mem: 32}})
	return cfg
}

func smallTasks(seed int64, n int) []workload.Task {
	rng := rand.New(rand.NewSource(seed))
	return cloudsim.ClampTasks(workload.SampleDataset(workload.Google, rng, n), smallConfig().VMs)
}

func newPPOClient(t *testing.T, id int, seed int64) *Client {
	t.Helper()
	cfg := smallConfig()
	tasks := smallTasks(seed, 10)
	dim := cloudsim.StateDim(cfg)
	agent := rl.NewPPO(rl.DefaultConfig(dim, cfg.PadVMs+1), rand.New(rand.NewSource(seed*7+1)))
	c, err := NewClient(id, "c", cfg, tasks, agent)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newDualClient(t *testing.T, id int, seed int64) *Client {
	t.Helper()
	cfg := smallConfig()
	tasks := smallTasks(seed, 10)
	dim := cloudsim.StateDim(cfg)
	agent := rl.NewDualCriticPPO(rl.DefaultConfig(dim, cfg.PadVMs+1), rand.New(rand.NewSource(seed*7+1)))
	c, err := NewClient(id, "c", cfg, tasks, agent)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// mustUpload extracts a payload, failing the test on error.
func mustUpload(t *testing.T, tr Transport, c *Client) Payload {
	t.Helper()
	p, err := tr.Upload(c)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestActorCriticTransportRoundTrip(t *testing.T) {
	a := newPPOClient(t, 0, 1)
	b := newPPOClient(t, 1, 2)
	tr := ActorCriticTransport{}
	payload := mustUpload(t, tr, a)
	if len(payload) != tr.PayloadSize(a) {
		t.Fatal("payload size mismatch")
	}
	if err := tr.Download(b, payload); err != nil {
		t.Fatal(err)
	}
	if err := tr.Download(b, payload[:10]); err == nil {
		t.Fatal("expected size error")
	}
	pa := a.Agent
	pb := b.Agent
	fa := nn.FlattenParams(pa.Actor)
	fb := nn.FlattenParams(pb.Actor)
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatal("actor transfer mismatch")
		}
	}
}

func TestPublicCriticTransportOnlyMovesPsi(t *testing.T) {
	a := newDualClient(t, 0, 3)
	b := newDualClient(t, 1, 4)
	tr := PublicCriticTransport{}
	da := a.Agent
	db := b.Agent
	actorBefore := nn.FlattenParams(db.Actor)
	localBefore := nn.FlattenParams(db.Critic)
	if err := tr.Download(b, mustUpload(t, tr, a)); err != nil {
		t.Fatal(err)
	}
	pubA := nn.FlattenParams(da.PublicCritic)
	pubB := nn.FlattenParams(db.PublicCritic)
	for i := range pubA {
		if pubA[i] != pubB[i] {
			t.Fatal("public critic transfer mismatch")
		}
	}
	for i, v := range nn.FlattenParams(db.Actor) {
		if v != actorBefore[i] {
			t.Fatal("actor must not travel")
		}
	}
	for i, v := range nn.FlattenParams(db.Critic) {
		if v != localBefore[i] {
			t.Fatal("local critic must not travel")
		}
	}
	// Communication cost: the dual-critic transport moves fewer scalars
	// than actor+critic would for the same architecture (§5.2 claim).
	if tr.PayloadSize(a) >= nn.NumParams(da.Actor)+nn.NumParams(da.Critic)+nn.NumParams(da.PublicCritic) {
		t.Fatal("public-critic payload should be smaller than the full model")
	}
}

func TestTransportTypeMismatch(t *testing.T) {
	dual := newDualClient(t, 0, 5)
	if err := (ActorCriticTransport{}).Download(dual, Payload{}); err == nil {
		t.Fatal("expected type error")
	}
	if _, err := (ActorCriticTransport{}).Upload(dual); err == nil {
		t.Fatal("expected upload type error, not a panic")
	}
	ppo := newPPOClient(t, 1, 6)
	if err := (PublicCriticTransport{}).Download(ppo, Payload{}); err == nil {
		t.Fatal("expected type error")
	}
	if _, err := (PublicCriticTransport{}).Upload(ppo); err == nil {
		t.Fatal("expected upload type error, not a panic")
	}
	if _, err := (FedProxTransport{Mu: 0.1}).Upload(dual); err == nil {
		t.Fatal("expected upload type error, not a panic")
	}
}

func TestMismatchedClientFailsRoundNotProcess(t *testing.T) {
	// A federation misconfigured with a dual-critic client behind the
	// actor+critic transport must surface an error from New (the initial
	// sync), not panic the process.
	clients := []*Client{newDualClient(t, 0, 7), newDualClient(t, 1, 8)}
	if _, err := New(clients, ActorCriticTransport{}, FedAvg{}, Options{Seed: 1}); err == nil {
		t.Fatal("expected error from misconfigured federation")
	}
}

func TestFederationInitSynchronizes(t *testing.T) {
	clients := []*Client{newPPOClient(t, 0, 10), newPPOClient(t, 1, 11), newPPOClient(t, 2, 12)}
	tr := ActorCriticTransport{}
	_, err := New(clients, tr, FedAvg{}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref := mustUpload(t, tr, clients[0])
	for _, c := range clients[1:] {
		got := mustUpload(t, tr, c)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatal("initial sync failed")
			}
		}
	}
}

func TestFederationRoundLifecycle(t *testing.T) {
	clients := []*Client{newDualClient(t, 0, 20), newDualClient(t, 1, 21), newDualClient(t, 2, 22), newDualClient(t, 3, 23)}
	f, err := New(clients, PublicCriticTransport{}, NewAttention(9), Options{K: 2, CommEvery: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RunEpisodes(5); err != nil { // 2 rounds + 1 trailing episode
		t.Fatal(err)
	}
	if f.Rounds != 2 {
		t.Fatalf("rounds %d, want 2", f.Rounds)
	}
	for _, c := range clients {
		if len(c.Rewards) != 5 {
			t.Fatalf("client %d trained %d episodes, want 5", c.ID, len(c.Rewards))
		}
		if len(c.CriticLossPre) != 2 || len(c.CriticLossPost) != 2 {
			t.Fatalf("probe counts %d/%d", len(c.CriticLossPre), len(c.CriticLossPost))
		}
		if len(c.AlphaHistory) != 5 {
			t.Fatalf("alpha history %d", len(c.AlphaHistory))
		}
	}
	if len(f.Global) == 0 {
		t.Fatal("global payload missing")
	}
}

func TestNonParticipantsGetGlobal(t *testing.T) {
	clients := []*Client{newDualClient(t, 0, 30), newDualClient(t, 1, 31), newDualClient(t, 2, 32)}
	tr := PublicCriticTransport{}
	f, err := New(clients, tr, FedAvg{}, Options{K: 1, CommEvery: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RunRound(); err != nil {
		t.Fatal(err)
	}
	// With FedAvg over K=1 every client (participant or not) ends up with
	// the same global payload.
	for _, c := range clients {
		got := mustUpload(t, tr, c)
		for i := range f.Global {
			if got[i] != f.Global[i] {
				t.Fatal("client out of sync with global")
			}
		}
	}
}

func TestAddClientReceivesGlobal(t *testing.T) {
	clients := []*Client{newDualClient(t, 0, 40), newDualClient(t, 1, 41)}
	tr := PublicCriticTransport{}
	f, err := New(clients, tr, FedAvg{}, Options{K: 2, CommEvery: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RunRound(); err != nil {
		t.Fatal(err)
	}
	joiner := newDualClient(t, 99, 42)
	if err := f.AddClient(joiner); err != nil {
		t.Fatal(err)
	}
	got := mustUpload(t, tr, joiner)
	for i := range f.Global {
		if got[i] != f.Global[i] {
			t.Fatal("joiner did not receive global model")
		}
	}
	if len(f.Clients) != 3 {
		t.Fatal("joiner not appended")
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	build := func(parallel bool) []float64 {
		clients := []*Client{newPPOClient(t, 0, 50), newPPOClient(t, 1, 51), newPPOClient(t, 2, 52)}
		f, err := New(clients, ActorCriticTransport{}, FedAvg{}, Options{K: 3, CommEvery: 2, Seed: 6, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.RunEpisodes(4); err != nil {
			t.Fatal(err)
		}
		return MeanRewardCurve(clients)
	}
	serial := build(false)
	par := build(true)
	if len(serial) != len(par) {
		t.Fatal("curve lengths differ")
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("parallel run diverged at episode %d: %v vs %v", i, serial[i], par[i])
		}
	}
}

func TestMeanRewardCurve(t *testing.T) {
	a := &Client{Rewards: []float64{1, 2, 3}}
	b := &Client{Rewards: []float64{3, 4}}
	got := MeanRewardCurve([]*Client{a, b})
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("mean curve %v", got)
	}
	if MeanRewardCurve(nil) != nil {
		t.Fatal("empty input should give nil")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, ActorCriticTransport{}, FedAvg{}, Options{}); err == nil {
		t.Fatal("expected error for no clients")
	}
	// K out of range falls back to N.
	clients := []*Client{newPPOClient(t, 0, 60)}
	f, err := New(clients, ActorCriticTransport{}, FedAvg{}, Options{K: 99, CommEvery: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if f.K != 1 || f.CommEvery != 1 {
		t.Fatalf("defaults wrong: K=%d comm=%d", f.K, f.CommEvery)
	}
}

func TestEngineSelectSubset(t *testing.T) {
	// Selection now lives in the shared round engine; the federation-facing
	// contract is unchanged: K distinct indices drawn without replacement.
	e, err := fedcore.NewAsync(FedAvg{}, Payload{0}, fedcore.AsyncOptions{
		Options: fedcore.Options{K: 3, Clients: 5, Seed: 7}, Barrier: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := e.Select([]int{0, 1, 2, 3, 4})
	if len(got) != 3 {
		t.Fatalf("len %d", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 5 || seen[v] {
			t.Fatalf("bad subset %v", got)
		}
		seen[v] = true
	}
	if len(e.Select([]int{0, 1})) != 2 {
		t.Fatal("fewer candidates than K should clamp to the candidates")
	}
}

func TestEvaluateProducesMetrics(t *testing.T) {
	c := newPPOClient(t, 0, 70)
	m, err := c.Evaluate(smallTasks(71, 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Total != 8 {
		t.Fatalf("eval total %d", m.Total)
	}

	// An evaluation never inherits the client's training step cap: under a
	// cap of 5 decisions the same evaluations still run to completion, for
	// the client's agent and for a heuristic alike.
	cfg := smallConfig()
	cfg.MaxSteps = 5
	capped, err := NewClient(1, "capped", cfg, c.Tasks, c.Agent)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := capped.Evaluate(smallTasks(71, 8), nil); err != nil || got != m {
		t.Fatalf("evaluation under a training cap of 5 (err %v):\n%+v\nwithout:\n%+v", err, got, m)
	}
	if ff, err := capped.Evaluate(smallTasks(71, 8), cloudsim.FirstFit{}); err != nil || ff.Completed != ff.Total || ff.Steps <= 5 {
		t.Fatalf("first-fit under a training cap of 5: %d/%d tasks in %d steps", ff.Completed, ff.Total, ff.Steps)
	}

	// A malformed task list is reported, not scored over its valid prefix.
	bad := smallTasks(71, 8)
	bad[3].Duration = 0
	if _, err := c.Evaluate(bad, nil); err == nil {
		t.Fatal("evaluation of a zero-duration task reported no error")
	}
}

func TestCommStatsAccounting(t *testing.T) {
	clients := []*Client{newDualClient(t, 0, 80), newDualClient(t, 1, 81), newDualClient(t, 2, 82)}
	tr := PublicCriticTransport{}
	f, err := New(clients, tr, FedAvg{}, Options{K: 2, CommEvery: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	size := int64(tr.PayloadSize(clients[0]))
	if err := f.RunRound(); err != nil {
		t.Fatal(err)
	}
	stats := f.Comm()
	if stats.Rounds != 1 {
		t.Fatalf("rounds %d", stats.Rounds)
	}
	// K=2 uploads; every client (3) downloads.
	if stats.UploadScalars != 2*size {
		t.Fatalf("uploads %d, want %d", stats.UploadScalars, 2*size)
	}
	if stats.DownloadScalars != 3*size {
		t.Fatalf("downloads %d, want %d", stats.DownloadScalars, 3*size)
	}
	if stats.Total() != 5*size {
		t.Fatalf("totals wrong: %+v", stats)
	}
	// Measured wire bytes: 5 identity frames, each a 20-byte header plus
	// 8 bytes per scalar.
	frame := int64(fedcore.FrameLen(fedcore.TierIdentity, int(size)))
	if stats.Bytes() != 5*frame {
		t.Fatalf("measured bytes %d, want %d: %+v", stats.Bytes(), 5*frame, stats)
	}
	if stats.RawBytes() != 8*stats.Total() {
		t.Fatalf("raw bytes %d, want %d", stats.RawBytes(), 8*stats.Total())
	}
	// Identity frames pay the header, so the "compression" ratio sits just
	// below 1.
	if r := stats.CompressionRatio(); r <= 0.99 || r >= 1 {
		t.Fatalf("identity compression ratio %v", r)
	}
}

func TestPublicCriticTransportCheaperThanActorCritic(t *testing.T) {
	// The §5.2 communication claim, end to end: for the same architecture,
	// a PFRL-DM round moves fewer scalars than a FedAvg round.
	dual := []*Client{newDualClient(t, 0, 90), newDualClient(t, 1, 91)}
	full := []*Client{newPPOClient(t, 0, 90), newPPOClient(t, 1, 91)}
	fd, err := New(dual, PublicCriticTransport{}, FedAvg{}, Options{K: 2, CommEvery: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ff, err := New(full, ActorCriticTransport{}, FedAvg{}, Options{K: 2, CommEvery: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := fd.RunRound(); err != nil {
		t.Fatal(err)
	}
	if err := ff.RunRound(); err != nil {
		t.Fatal(err)
	}
	if fd.Comm().Total() >= ff.Comm().Total() {
		t.Fatalf("dual-critic round (%d scalars) should be cheaper than full-model round (%d)",
			fd.Comm().Total(), ff.Comm().Total())
	}
}
