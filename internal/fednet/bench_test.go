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
// global in place and copies the frame into the caller's reply buffer, which
// is sent after the lock is released, so it allocates nothing (make bench-agg
// holds it to 0 allocs/op).
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
		if err := s.sync(SyncArgs{ClientID: id, Round: 1, Frame: enc.Encode(up)}, &SyncReply{}, new([]byte)); err != nil {
			b.Fatal(err)
		}
	}
	if s.Rounds() != 1 {
		b.Fatalf("%d commits, want 1", s.Rounds())
	}
	var reply FetchReply
	var buf []byte
	fetch := func() {
		if err := s.fetch(FetchArgs{ClientID: clients - 1, Base: 0}, &reply, &buf); err != nil || !reply.Has || reply.Participant {
			b.Fatalf("fetch: %+v, %v", reply, err)
		}
	}
	fetch() // sizes the reply buffer, as a connection's first answer does
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetch()
	}
}

// BenchmarkRPCSync is one loopback Sync on the swarm's codec (i8 + delta)
// answered with the committed global: a non-participant retransmits a
// submission the server already holds, so every call crosses the wire both
// ways — a delta upload decoded against the client's reference, the global
// framed in place and copied into the connection's reply buffer — without
// filling the engine's buffer. make bench-agg holds it to an allocs/op
// budget.
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
// installed through the client's (decoded into its delta reference), an
// episode and its Update, the public critic's upload encoded against that
// reference and decoded by the server end into one buffer every client
// shares — and a forced GC then reads the live heap. It reports
// live-B/client, the live heap the clients and both their wire ends added,
// per client; shared state (the tensor pool, which lends the gradients and
// state blocks too, the server end's frame cache, the upload decode buffer)
// is spread over the 32. make
// bench-agg fails it above FOOTPRINT_BUDGET (scripts/bench_alloc_guard.sh).
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
		var global, decoded fed.Payload
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
				decoded, err = server.Decode(i, wc.Encode(up), decoded)
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
		runtime.KeepAlive(decoded)
	}
}

// BenchmarkServerFootprint measures what an async server holds per client
// (DESIGN §8 "Per-client footprint"): 32 clients join a server on the
// swarm's codec (i8 + delta), aggregator (attention) and ψ width, and each
// syncs twice, in turn, across eight commits (Buffer 8, K 16), so every
// client holds a server-side delta reference and the participants of the
// last commits a retained result; then a forced GC reads the live heap the
// server added, per client. Shared state — the engine's global, arena and
// staging, the wire's frame cache, the one upload decode buffer — is spread
// over the 32; a connection's buffers are not in it (the calls are made in
// process, into one reply buffer). make bench-agg fails it above
// SERVER_FOOTPRINT_BUDGET (scripts/bench_alloc_guard.sh).
func BenchmarkServerFootprint(b *testing.B) {
	const clients, dim = 32, 4225
	codec := fedcore.CodecConfig{Tier: fedcore.TierI8, Delta: true}
	enc := fedcore.NewEncoder(fedcore.CodecConfig{Tier: fedcore.TierI8})
	up := make(fed.Payload, dim)
	var buf []byte
	run := func() *Server {
		s, err := NewServer(ServerConfig{
			Clients: clients, K: 16, Buffer: 8, Seed: 1, InitialGlobal: make(fed.Payload, dim),
			Aggregator: fed.NewAttention(1), Async: true, StalenessBound: -1, Codec: codec,
		})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < clients; i++ {
			if err := s.join(JoinArgs{}, &JoinReply{}); err != nil {
				b.Fatal(err)
			}
		}
		for seq := 1; seq <= 2; seq++ {
			for id := 0; id < clients; id++ {
				for j := range up {
					up[j] = float64(id+seq) * 1e-3 * float64(j%17)
				}
				var reply SyncReply
				if err := s.sync(SyncArgs{ClientID: id, Round: seq, Frame: enc.Encode(up), Base: s.Rounds()}, &reply, &buf); err != nil {
					b.Fatal(err)
				}
			}
		}
		if s.Rounds() != 2*clients/8 {
			b.Fatalf("%d commits, want %d", s.Rounds(), 2*clients/8)
		}
		return s
	}
	// One unmeasured run first pays what any server pays once per process —
	// ≈ 2.9 MB, the attention projections attn caches per width and the
	// tensor pool's scratch — so the reading is the per-client state alone.
	run()
	for range b.N {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s := run()
		runtime.GC()
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/clients, "live-B/client")
		runtime.KeepAlive(s)
	}
}
