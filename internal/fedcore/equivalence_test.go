// Cross-path equivalence golden tests: the same seed and config run through
// the in-process federation (core.Train over fed.Federation) and through a
// loopback networked deployment (fednet.Server + RPC clients) must be
// bit-identical — same global payload, same reward curves, same round
// reports. Both paths are thin adapters over the fedcore engine, and these
// tests are the regression net that keeps them that way.
package fedcore_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fed"
	"repro/internal/fedcore"
	"repro/internal/fednet"
)

// equivConfig is a tiny PFRL-DM setup with K < N so every round consumes
// the engine's selection RNG: four heterogeneous clients, two full rounds,
// no trailing local segment.
func equivConfig(seed int64) core.ExperimentConfig {
	cfg := core.DefaultExperiment(seed)
	cfg.Specs = core.ScaleSpecs(core.Table2Specs(), 4)
	cfg.TasksPerClient = 24
	cfg.Episodes = 4
	cfg.CommEvery = 2
	cfg.EpisodeStepCap = 120
	cfg.Parallel = false
	cfg.K = 2
	return cfg
}

// buildFedClients replays core.Train's client construction so the networked
// path starts from bit-identical agents, tasks, and environments.
func buildFedClients(t *testing.T, cfg core.ExperimentConfig) []*fed.Client {
	t.Helper()
	data, err := core.SampleClientData(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clients, err := core.BuildClients(core.AlgPFRLDM, cfg, data)
	if err != nil {
		t.Fatal(err)
	}
	return clients
}

// runLoopback drives the same federation over a loopback fednet deployment:
// one server, one RPC client per fed.Client, full barrier (no deadline).
func runLoopback(t *testing.T, cfg core.ExperimentConfig, rounds int) (*fednet.Server, []*fed.Client) {
	t.Helper()
	clients := buildFedClients(t, cfg)
	transport := fed.PublicCriticTransport{}
	initial, err := transport.Upload(clients[0])
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fednet.NewServer(fednet.ServerConfig{
		Clients:       len(clients),
		K:             cfg.K,
		Seed:          cfg.Seed,
		InitialGlobal: initial,
		Aggregator:    fed.NewAttention(cfg.Seed),
		Codec:         cfg.Codec,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Dial serially so slot i holds client i, mirroring in-process ids.
	rcs := make([]*fednet.RemoteClient, len(clients))
	for i, c := range clients {
		rc, err := fednet.Dial(addr, c, transport)
		if err != nil {
			t.Fatal(err)
		}
		rcs[i] = rc
	}
	errs := make([]error, len(rcs))
	var wg sync.WaitGroup
	for i, rc := range rcs {
		wg.Add(1)
		go func(i int, rc *fednet.RemoteClient) {
			defer wg.Done()
			errs[i] = rc.RunRounds(rounds, cfg.CommEvery)
			rc.Close()
		}(i, rc)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("remote client %d: %v", i, err)
		}
	}
	return srv, clients
}

func samePayload(a, b fed.Payload) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCrossPathEquivalenceGolden runs the K < N identity case — every round
// consumes the selection RNG — and, at K = N, every codec shape the wire
// session has: lossless and lossy tiers, with and without delta references.
// The codec rows run at K = N because at K < N the pull path encodes only the
// K drawn uplinks per round and the push path all N, so the clients'
// error-feedback residuals legitimately differ; at K = N both paths move the
// same frames, so the measured wire bytes must match too — a rotation one
// adapter skips shows in the globals, a frame one adapter counts and the
// other does not shows in the bytes.
func TestCrossPathEquivalenceGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		k      int
		rounds int
		codec  fedcore.CodecConfig
	}{
		{"identity_K2", 2, 2, fedcore.CodecConfig{}},
		{"identity", 4, 4, fedcore.CodecConfig{}},
		{"f32", 4, 4, fedcore.CodecConfig{Tier: fedcore.TierF32}},
		{"i8", 4, 4, fedcore.CodecConfig{Tier: fedcore.TierI8}},
		{"i8+delta", 4, 4, fedcore.CodecConfig{Tier: fedcore.TierI8, Delta: true}},
		{"i16+delta", 4, 4, fedcore.CodecConfig{Tier: fedcore.TierI16, Delta: true}},
		{"identity+delta", 4, 4, fedcore.CodecConfig{Tier: fedcore.TierIdentity, Delta: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := equivConfig(42)
			cfg.K, cfg.Codec = tc.k, tc.codec
			cfg.CommEvery = cfg.Episodes / tc.rounds
			crossPathEquivalence(t, cfg, tc.rounds)
		})
	}
}

func crossPathEquivalence(t *testing.T, cfg core.ExperimentConfig, rounds int) {
	inRes, err := core.Train(core.AlgPFRLDM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, netClients := runLoopback(t, cfg, rounds)

	// Bit-identical global payloads.
	if !samePayload(inRes.Federation.Global, srv.Global()) {
		t.Fatal("global payloads diverged between in-process and networked runs")
	}

	// Bit-identical mean reward curves.
	netCurve := fed.MeanRewardCurve(netClients)
	if len(netCurve) != len(inRes.MeanCurve) || len(netCurve) != cfg.Episodes {
		t.Fatalf("curve lengths: in-process %d, networked %d, want %d",
			len(inRes.MeanCurve), len(netCurve), cfg.Episodes)
	}
	for i := range netCurve {
		if netCurve[i] != inRes.MeanCurve[i] {
			t.Fatalf("episode %d: mean reward %v (in-process) vs %v (networked)",
				i, inRes.MeanCurve[i], netCurve[i])
		}
	}

	// At K = N both paths put the same frames on the wire.
	if inComm, netComm := inRes.Comm, srv.Comm(); cfg.K == len(netClients) &&
		(inComm.UploadBytes == 0 || inComm.UploadBytes != netComm.UploadBytes || inComm.DownloadBytes != netComm.DownloadBytes) {
		t.Fatalf("wire bytes diverged:\n in-process %+v\n networked  %+v", inComm, netComm)
	}

	// Matching per-round reports on the path-independent fields. Arrived is
	// a transport-plane dual (the in-process path pulls K uploads, so
	// Arrived == Selected; the networked barrier collects all N pushes, so
	// Arrived == Expected) and is asserted per path instead.
	inReports, netReports := inRes.Federation.Reports, srv.Reports()
	if len(inReports) != rounds || len(netReports) != rounds {
		t.Fatalf("report counts: %d vs %d, want %d", len(inReports), len(netReports), rounds)
	}
	for r := range inReports {
		ir, nr := inReports[r], netReports[r]
		if ir.Round != nr.Round || ir.Expected != nr.Expected ||
			ir.Selected != nr.Selected || ir.Participants != nr.Participants ||
			ir.UploadDrops != nr.UploadDrops || ir.DownloadDrops != nr.DownloadDrops ||
			ir.TimedOut || nr.TimedOut {
			t.Fatalf("round %d reports diverged:\n in-process %+v\n networked  %+v", r, ir, nr)
		}
		if ir.Selected != cfg.K || ir.Participants != cfg.K {
			t.Fatalf("round %d: selected %d participants %d, want K=%d", r, ir.Selected, ir.Participants, cfg.K)
		}
		if ir.Arrived != ir.Selected {
			t.Fatalf("round %d: in-process pull should arrive exactly the selected, got %+v", r, ir)
		}
		if nr.Arrived != nr.Expected {
			t.Fatalf("round %d: networked full barrier should arrive everyone, got %+v", r, nr)
		}
	}
}

// TestLateJoinerSeesSameModelOnBothPaths pins the unified late-join policy:
// after one completed round, a client joining via fed.AddClient and one
// joining via a fednet Join receive bit-identical models (the engine's
// stored global payload). The networked round closes by deadline — the
// server expects the joiner's slot to exist up front, so the barrier can
// never fill before the join — which is exactly the mid-training scenario.
func TestLateJoinerSeesSameModelOnBothPaths(t *testing.T) {
	cfg := equivConfig(99)
	cfg.Specs = cfg.Specs[:2]
	cfg.Episodes = 1
	cfg.CommEvery = 1
	cfg.K = 2

	transport := fed.PublicCriticTransport{}

	// In-process: one round with two clients, then a mid-training join.
	inClients := buildFedClients(t, cfg)
	f, err := fed.New(inClients, transport, fed.NewAttention(cfg.Seed),
		fed.Options{K: cfg.K, CommEvery: cfg.CommEvery, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RunEpisodes(cfg.Episodes); err != nil {
		t.Fatal(err)
	}
	inJoiner := buildFedClients(t, cfg)[0] // shape-compatible fresh client
	if err := f.AddClient(inJoiner); err != nil {
		t.Fatal(err)
	}
	inPayload, err := transport.Upload(inJoiner)
	if err != nil {
		t.Fatal(err)
	}
	if !samePayload(inPayload, f.Global) {
		t.Fatal("in-process joiner did not receive the stored global payload")
	}

	// Networked: a three-slot server, two clients running one round (closed
	// by the deadline since slot 3 is empty), then the third joins fresh.
	netClients := buildFedClients(t, cfg)
	initial, err := transport.Upload(netClients[0])
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fednet.NewServer(fednet.ServerConfig{
		Clients:       3,
		K:             cfg.K,
		Seed:          cfg.Seed,
		InitialGlobal: initial,
		Aggregator:    fed.NewAttention(cfg.Seed),
		RoundTimeout:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rcs := make([]*fednet.RemoteClient, len(netClients))
	for i, c := range netClients {
		if rcs[i], err = fednet.Dial(addr, c, transport); err != nil {
			t.Fatal(err)
		}
	}
	errs := make([]error, len(rcs))
	var wg sync.WaitGroup
	for i, rc := range rcs {
		wg.Add(1)
		go func(i int, rc *fednet.RemoteClient) {
			defer wg.Done()
			errs[i] = rc.RunRounds(1, cfg.CommEvery)
			rc.Close()
		}(i, rc)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("remote client %d: %v", i, err)
		}
	}
	reports := srv.Reports()
	if len(reports) != 1 || !reports[0].TimedOut || reports[0].Arrived != 2 {
		t.Fatalf("expected one deadline round with both clients arrived, got %+v", reports)
	}

	netJoiner := buildFedClients(t, cfg)[0]
	rcJoin, err := fednet.Dial(addr, netJoiner, transport)
	if err != nil {
		t.Fatal(err)
	}
	defer rcJoin.Close()
	if rcJoin.Round() != 1 {
		t.Fatalf("networked joiner adopted round %d, want 1", rcJoin.Round())
	}
	netPayload, err := transport.Upload(netJoiner)
	if err != nil {
		t.Fatal(err)
	}
	if !samePayload(netPayload, srv.Global()) {
		t.Fatal("networked joiner did not receive the stored global payload")
	}

	// The unified policy: both joiners hold the same bits.
	if !samePayload(inPayload, netPayload) {
		t.Fatal("late joiners diverged between in-process and networked paths")
	}
	// And the in-process engine agrees with the networked server.
	if round, global := f.Engine.State(); round != 1 || !samePayload(global, srv.Global()) {
		t.Fatalf("engine join state diverged: round %d", round)
	}
}
