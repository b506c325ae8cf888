package fednet

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/fed"
	"repro/internal/fedcore"
	"repro/internal/rl"
	"repro/internal/workload"
)

func testConfig() cloudsim.Config {
	return cloudsim.DefaultConfig([]cloudsim.VMSpec{{CPU: 4, Mem: 16}, {CPU: 8, Mem: 32}})
}

func newLocalClient(t *testing.T, id int, seed int64) *fed.Client {
	t.Helper()
	cfg := testConfig()
	rng := rand.New(rand.NewSource(seed))
	tasks := cloudsim.ClampTasks(workload.SampleDataset(workload.Google, rng, 12), cfg.VMs)
	agent := rl.NewDualCriticPPO(
		rl.DefaultConfig(cloudsim.StateDim(cfg), cfg.PadVMs+1),
		rand.New(rand.NewSource(seed*31+7)))
	c, err := fed.NewClient(id, "remote", cfg, tasks, agent)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// mustUpload extracts a payload, failing the test on error.
func mustUpload(t *testing.T, tr fed.Transport, c *fed.Client) fed.Payload {
	t.Helper()
	p, err := tr.Upload(c)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// testFrame wraps a payload in an identity wire frame, as a raw-RPC test
// client would before Sync.
func testFrame(p fed.Payload) []byte {
	return append([]byte(nil), fedcore.NewEncoder(fedcore.CodecConfig{}).Encode(p)...)
}

// testDecode unwraps a downlink frame, failing the test on a bad frame.
func testDecode(t *testing.T, frame []byte) fed.Payload {
	t.Helper()
	p, _, err := fedcore.DecodeFrame(frame, nil, nil)
	if err != nil {
		t.Fatalf("bad downlink frame: %v", err)
	}
	return p
}

// startServer boots a server for n clients with the given aggregator and
// returns its address.
func startServer(t *testing.T, n, k int, agg fed.Aggregator, initial fed.Payload) (*Server, string) {
	t.Helper()
	return startConfigured(t, ServerConfig{
		Clients: n, K: k, Seed: 42, InitialGlobal: initial, Aggregator: agg,
	})
}

// startConfigured boots a server from a full config.
func startConfigured(t *testing.T, cfg ServerConfig) (*Server, string) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, addr
}

func TestServerConfigValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Fatal("empty config should error")
	}
	if _, err := NewServer(ServerConfig{Clients: 1, Aggregator: fed.FedAvg{}}); err == nil {
		t.Fatal("missing initial global should error")
	}
	if _, err := NewServer(ServerConfig{Clients: 1, InitialGlobal: fed.Payload{1}}); err == nil {
		t.Fatal("missing aggregator should error")
	}
}

func TestNetworkedFederationEndToEnd(t *testing.T) {
	const n = 3
	transport := fed.PublicCriticTransport{}
	ref := newLocalClient(t, 99, 5)
	initial := mustUpload(t, transport, ref)
	srv, addr := startServer(t, n, n, fed.FedAvg{}, initial)

	var wg sync.WaitGroup
	clients := make([]*RemoteClient, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		local := newLocalClient(t, i, int64(i)+10)
		rc, err := DialOptions(addr, local, transport, Options{})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = rc
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = rc.RunRounds(2, 1)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if srv.Rounds() != 2 {
		t.Fatalf("server rounds %d, want 2", srv.Rounds())
	}
	// Under full-participation FedAvg every client ends on the global model.
	global := srv.Global()
	for i, rc := range clients {
		got := mustUpload(t, transport, rc.Local)
		for d := range global {
			if got[d] != global[d] {
				t.Fatalf("client %d out of sync with server global", i)
			}
		}
		if len(rc.Local.Rewards) != 2 {
			t.Fatalf("client %d trained %d episodes", i, len(rc.Local.Rewards))
		}
		rc.Close()
	}
}

func TestNetworkedMatchesInProcessRound(t *testing.T) {
	// One full-participation round over TCP must produce the same global
	// model as fed.Federation given identical clients. This pins the
	// protocol's determinism.
	const n = 3
	transport := fed.PublicCriticTransport{}

	mkClients := func() []*fed.Client {
		out := make([]*fed.Client, n)
		for i := range out {
			out[i] = newLocalClient(t, i, int64(i)+40)
		}
		return out
	}

	// In-process reference.
	inproc := mkClients()
	f, err := fed.New(inproc, transport, fed.FedAvg{}, fed.Options{K: n, CommEvery: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RunRound(); err != nil {
		t.Fatal(err)
	}

	// Networked run with identical clients and initial global.
	netClients := mkClients()
	initial := mustUpload(t, transport, netClients[0])
	srv, addr := startServer(t, n, n, fed.FedAvg{}, initial)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		rc, err := DialOptions(addr, netClients[i], transport, Options{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := rc.RunRounds(1, 1); err != nil {
				t.Error(err)
			}
			rc.Close()
		}()
	}
	wg.Wait()

	got := srv.Global()
	want := f.Global
	if len(got) != len(want) {
		t.Fatalf("global sizes differ: %d vs %d", len(got), len(want))
	}
	for d := range want {
		if got[d] != want[d] {
			t.Fatalf("networked global diverges from in-process at %d: %v vs %v", d, got[d], want[d])
		}
	}
}

func TestPartialParticipationOverNetwork(t *testing.T) {
	const n, k = 4, 2
	transport := fed.PublicCriticTransport{}
	ref := newLocalClient(t, 99, 60)
	srv, addr := startServer(t, n, k, fed.NewAttention(3), mustUpload(t, transport, ref))

	var wg sync.WaitGroup
	participants := 0
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		local := newLocalClient(t, i, int64(i)+60)
		rc, err := DialOptions(addr, local, transport, Options{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			local.TrainEpisodes(1)
			var reply SyncReply
			args := SyncArgs{ClientID: rc.ID(), Round: 0, Frame: testFrame(mustUpload(t, transport, local))}
			if err := rc.rpc.Call(methodSync, args, &reply); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			if reply.Participant {
				participants++
			}
			mu.Unlock()
			rc.Close()
		}(i)
	}
	wg.Wait()
	if participants != k {
		t.Fatalf("%d participants, want %d", participants, k)
	}
	if srv.Rounds() != 1 {
		t.Fatalf("rounds %d", srv.Rounds())
	}
}

func TestJoinRejectsOverflow(t *testing.T) {
	transport := fed.PublicCriticTransport{}
	ref := newLocalClient(t, 99, 70)
	_, addr := startServer(t, 1, 1, fed.FedAvg{}, mustUpload(t, transport, ref))
	c1 := newLocalClient(t, 0, 71)
	rc, err := DialOptions(addr, c1, transport, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	c2 := newLocalClient(t, 1, 72)
	if _, err := DialOptions(addr, c2, transport, Options{}); err == nil {
		t.Fatal("expected federation-full error")
	}
}

func TestSyncRejectsBadRequests(t *testing.T) {
	transport := fed.PublicCriticTransport{}
	ref := newLocalClient(t, 99, 80)
	_, addr := startServer(t, 2, 2, fed.FedAvg{}, mustUpload(t, transport, ref))
	local := newLocalClient(t, 0, 81)
	rc, err := DialOptions(addr, local, transport, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	var reply SyncReply
	// Wrong round.
	err = rc.rpc.Call(methodSync, SyncArgs{ClientID: rc.ID(), Round: 7}, &reply)
	if err == nil {
		t.Fatal("expected round-mismatch error")
	}
	// Unknown client.
	err = rc.rpc.Call(methodSync, SyncArgs{ClientID: 55, Round: 0}, &reply)
	if err == nil {
		t.Fatal("expected unknown-client error")
	}
}
