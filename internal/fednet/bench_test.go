package fednet

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/fed"
	"repro/internal/fedcore"
)

// BenchmarkAsyncReply answers one non-participant Fetch in-process on the
// swarm's codec (i8 + delta), after a commit: the reply frames the committed
// global in place, so its one allocation is the copy of the frame that is sent
// after the lock is released (make bench-agg holds it to 1 alloc/op).
func BenchmarkAsyncReply(b *testing.B) {
	const clients, dim = 4, 4227
	initial := make(fed.Payload, dim)
	s, err := NewServer(ServerConfig{
		Clients: clients, K: 2, Buffer: 2, Seed: 1, InitialGlobal: initial,
		Aggregator: fed.FedAvg{}, Async: true, StalenessBound: -1,
		Codec: fedcore.CodecConfig{Tier: fedcore.TierI8, Delta: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < clients; i++ {
		if err := s.join(JoinArgs{}, &JoinReply{}); err != nil {
			b.Fatal(err)
		}
	}
	enc := fedcore.NewEncoder(fedcore.CodecConfig{Tier: fedcore.TierI8})
	for id := 0; id < 2; id++ {
		up := make(fed.Payload, dim)
		for j := range up {
			up[j] = float64(id+1) * 1e-3 * float64(j%17)
		}
		if err := s.sync(SyncArgs{ClientID: id, Round: 1, Frame: enc.Encode(up)}, &SyncReply{}); err != nil {
			b.Fatal(err)
		}
	}
	if s.Rounds() != 1 {
		b.Fatalf("%d commits, want 1", s.Rounds())
	}
	var reply FetchReply
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.fetch(FetchArgs{ClientID: clients - 1, Base: 0}, &reply); err != nil || !reply.Has || reply.Participant {
			b.Fatalf("fetch: %+v, %v", reply, err)
		}
	}
}

// BenchmarkRPCSync is one loopback Sync on the swarm's codec (i8 + delta)
// answered with the committed global: a non-participant retransmits a
// submission the server already holds, so every call crosses the wire both
// ways — a delta upload decoded against the client's reference, the global
// framed in place — without filling the engine's buffer. make bench-agg
// holds it to an allocs/op budget.
func BenchmarkRPCSync(b *testing.B) {
	const clients, dim = 4, 4227
	codec := fedcore.CodecConfig{Tier: fedcore.TierI8, Delta: true}
	s, err := NewServer(ServerConfig{
		Clients: clients, K: 2, Buffer: 2, Seed: 1, InitialGlobal: make(fed.Payload, dim),
		Aggregator: fed.FedAvg{}, Async: true, StalenessBound: -1, Codec: codec,
	})
	if err != nil {
		b.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	conn := dialRaw(b, addr)
	for i := 0; i < clients; i++ {
		if err := conn.Call(methodJoin, JoinArgs{}, &JoinReply{}); err != nil {
			b.Fatal(err)
		}
	}
	enc := fedcore.NewEncoder(fedcore.CodecConfig{Tier: fedcore.TierI8})
	up := make(fed.Payload, dim)
	for id := 0; id < 2; id++ {
		for j := range up {
			up[j] = float64(id+1) * 1e-3 * float64(j%17)
		}
		if err := conn.Call(methodSync, SyncArgs{ClientID: id, Round: 1, Frame: enc.Encode(up)}, &SyncReply{}); err != nil {
			b.Fatal(err)
		}
	}
	if s.Rounds() != 1 {
		b.Fatalf("%d commits, want 1", s.Rounds())
	}
	wire := fedcore.NewWireClient(codec)
	install := func(reply *SyncReply) {
		p, err := wire.Decode(reply.Frame)
		if err == nil {
			err = wire.Install(p, reply.RefTag, func(fed.Payload) error { return nil })
		}
		if err != nil || reply.Participant {
			b.Fatalf("reply %+v: %v", reply, err)
		}
	}
	var reply SyncReply
	args := SyncArgs{ClientID: clients - 1, Round: 1, Base: 1}
	sync := func() {
		args.Frame = wire.Encode(up)
		if err := conn.Call(methodSync, args, &reply); err != nil {
			b.Fatal(err)
		}
		install(&reply)
	}
	// One untimed call first: the buffers the first call sizes on both ends
	// would otherwise be spread over b.N, and the budget holds the steady
	// state at any -benchtime.
	sync()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sync()
	}
}

// BenchmarkClientFootprint measures what a swarm client holds between its
// turns (DESIGN §8 "Per-client footprint"): 32 clients of RunSwarm's recipe
// at the benchmark's swarm size (8 tasks) each run one activation on the
// swarm's codec — the initial global framed by a server wire end and
// installed through the client's (its delta reference), an episode and its
// Update, the public critic's upload encoded against that reference and
// decoded by the server end into the client's slot — and a forced GC then
// reads the live heap. It reports live-B/client, the live heap the clients
// and both their wire ends added, per client; shared state (the tensor
// pool, nn's gradient store, the server end's frame cache) is spread over
// the 32. make bench-agg fails it above FOOTPRINT_BUDGET
// (scripts/bench_alloc_guard.sh).
func BenchmarkClientFootprint(b *testing.B) {
	const clients, tasks = 32, 8
	codec := fedcore.CodecConfig{Tier: fedcore.TierI8, Delta: true}
	caps := core.CapsFor(swarmProfiles)
	transport := fed.PublicCriticTransport{}
	for range b.N {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		server := fedcore.NewWireServer(codec)
		fleet := make([]*fed.Client, clients)
		ends := make([]*fedcore.WireClient, clients)
		var global fed.Payload
		for i := range fleet {
			c, err := swarmClient(i, 1+int64(i)*1000003, tasks, caps)
			if err != nil {
				b.Fatal(err)
			}
			if global == nil {
				up, err := transport.Upload(c)
				if err != nil {
					b.Fatal(err)
				}
				global = append(fed.Payload(nil), up...)
			}
			wc := fedcore.NewWireClient(codec)
			frame, _, tag := server.Frame(i, global)
			p, err := wc.Decode(frame)
			if err == nil {
				err = wc.Install(p, tag, func(p fed.Payload) error { return transport.Download(c, p) })
			}
			if err != nil {
				b.Fatal(err)
			}
			c.TrainEpisodes(1)
			up, err := transport.Upload(c)
			if err == nil {
				_, err = server.Decode(i, wc.Encode(up))
			}
			if err != nil {
				b.Fatal(err)
			}
			fleet[i], ends[i] = c, wc
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/clients, "live-B/client")
		runtime.KeepAlive(fleet)
		runtime.KeepAlive(ends)
		runtime.KeepAlive(server)
	}
}
