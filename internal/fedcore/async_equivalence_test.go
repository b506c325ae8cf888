// Async degradation golden test: with staleness-bound 0 and buffer = N the
// buffered asynchronous engine behind a networked fednet server must
// reproduce the barrier server bit-identically on the same seed — same
// global payloads, same reward curves, same round reports. This is the
// correctness pin that makes the async rewrite safe: the sync behavior is
// the async behavior at one point of the parameter space, so any drift in
// the shared machinery breaks this golden. The in-process federation runs
// the barrier only; the cross-path golden ties it to the barrier server.
package fedcore_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fed"
	"repro/internal/fednet"
)

// compareReports asserts two report slices are identical on every field.
func compareReports(t *testing.T, label string, sync, async []fed.RoundReport) {
	t.Helper()
	if len(sync) != len(async) {
		t.Fatalf("%s: report counts %d (sync) vs %d (async)", label, len(sync), len(async))
	}
	for r := range sync {
		if sync[r] != async[r] {
			t.Fatalf("%s round %d reports diverged:\n sync  %+v\n async %+v", label, r, sync[r], async[r])
		}
	}
}

// runLoopbackAsync drives the same federation over a loopback async fednet
// deployment with buffer = N: clients are stepped serially in ascending id
// order (fetch → train → submit), so every commit fires on the last client's
// submission over all N arrivals — exactly the barrier's arrival set in
// ascending order, consuming the selection RNG identically. A trailing fetch
// pass installs the final commit on every client, as the barrier reply does.
func runLoopbackAsync(t *testing.T, cfg core.ExperimentConfig, rounds int) (*fednet.Server, []*fed.Client) {
	t.Helper()
	clients := buildFedClients(t, cfg)
	transport := fed.PublicCriticTransport{}
	initial, err := transport.Upload(clients[0])
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fednet.NewServer(fednet.ServerConfig{
		Clients:        len(clients),
		K:              cfg.K,
		Seed:           cfg.Seed,
		InitialGlobal:  initial,
		Aggregator:     fed.NewAttention(cfg.Seed),
		Async:          true,
		StalenessBound: 0,
		Buffer:         len(clients),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rcs := make([]*fednet.RemoteClient, len(clients))
	for i, c := range clients {
		rc, err := fednet.Dial(addr, c, transport)
		if err != nil {
			t.Fatal(err)
		}
		if !rc.Async() {
			t.Fatal("server did not report async mode at join")
		}
		rcs[i] = rc
		defer rc.Close()
	}
	for r := 0; r < rounds; r++ {
		for _, rc := range rcs {
			if err := rc.RunRounds(1, cfg.CommEvery); err != nil {
				t.Fatalf("round %d client %d: %v", r, rc.ID(), err)
			}
		}
	}
	// Final fetch pass: the last commit's results reach everyone, matching
	// the sync barrier where the final Sync reply installs them.
	for _, rc := range rcs {
		if _, err := rc.Fetch(); err != nil {
			t.Fatalf("final fetch client %d: %v", rc.ID(), err)
		}
	}
	return srv, clients
}

// TestAsyncDegradesToSyncNetworked is the networked half of the degradation
// pin: a loopback async deployment at staleness-bound 0 / buffer = N (the
// push path's barrier-arrival set) reproduces the synchronous loopback run
// bit-identically — and, through the cross-path golden, the in-process run.
func TestAsyncDegradesToSyncNetworked(t *testing.T) {
	cfg := equivConfig(42)
	rounds := cfg.Episodes / cfg.CommEvery

	syncSrv, syncClients := runLoopback(t, cfg, rounds)
	asyncSrv, asyncClients := runLoopbackAsync(t, cfg, rounds)

	if !samePayload(syncSrv.Global(), asyncSrv.Global()) {
		t.Fatal("global payloads diverged between sync and degraded-async servers")
	}
	syncCurve := fed.MeanRewardCurve(syncClients)
	asyncCurve := fed.MeanRewardCurve(asyncClients)
	if len(syncCurve) != len(asyncCurve) || len(syncCurve) != cfg.Episodes {
		t.Fatalf("curve lengths %d vs %d, want %d", len(syncCurve), len(asyncCurve), cfg.Episodes)
	}
	for i := range syncCurve {
		if syncCurve[i] != asyncCurve[i] {
			t.Fatalf("episode %d: mean reward %v (sync) vs %v (async)", i, syncCurve[i], asyncCurve[i])
		}
	}
	compareReports(t, "networked", syncSrv.Reports(), asyncSrv.Reports())
	// Every client ends holding the same bits on both paths.
	transport := fed.PublicCriticTransport{}
	for i := range syncClients {
		sp, err := transport.Upload(syncClients[i])
		if err != nil {
			t.Fatal(err)
		}
		ap, err := transport.Upload(asyncClients[i])
		if err != nil {
			t.Fatal(err)
		}
		if !samePayload(sp, ap) {
			t.Fatalf("client %d final payloads diverged", i)
		}
	}
}
