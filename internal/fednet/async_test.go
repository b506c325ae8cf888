package fednet

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fed"
	"repro/internal/fedcore"
	"repro/internal/obs"
)

// startAsyncServer boots an async-mode server (staleness unbounded unless
// bound given) and returns it with its address.
func startAsyncServer(t *testing.T, n, k, bound, buffer int, agg fed.Aggregator, initial fed.Payload) (*Server, string) {
	t.Helper()
	return startConfigured(t, ServerConfig{
		Clients: n, K: k, Seed: 42, InitialGlobal: initial, Aggregator: agg,
		Async: true, StalenessBound: bound, Buffer: buffer,
	})
}

// dialRaw opens a bare RPC connection to addr on the fednet wire format,
// closed when the test ends.
func dialRaw(tb testing.TB, addr string) *rpcClient {
	tb.Helper()
	conn, err := dialRPC(addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { conn.Close() })
	return conn
}

// rawJoin registers a bare RPC connection as the next client slot.
func rawJoin(t *testing.T, conn *rpcClient) JoinReply {
	t.Helper()
	var reply JoinReply
	if err := conn.Call(methodJoin, JoinArgs{}, &reply); err != nil {
		t.Fatal(err)
	}
	return reply
}

// TestAsyncServerDedupesRetransmits pins the (client, seq) dedup at the RPC
// layer: a duplicated Sync — the wire-level retransmit a client sends after
// a lost reply — must be answered idempotently and must not re-mix the
// delta into the aggregate.
func TestAsyncServerDedupesRetransmits(t *testing.T) {
	initial := fed.Payload{0, 0}
	srv, addr := startAsyncServer(t, 2, 2, -1, 2, fed.FedAvg{}, initial)

	conns := make([]*rpcClient, 2)
	for i := range conns {
		conn := dialRaw(t, addr)
		if reply := rawJoin(t, conn); !reply.Async {
			t.Fatal("join did not report async mode")
		}
		conns[i] = conn
	}

	// Client 0 submits seq 1, then retransmits it (duplicated/delayed ACK).
	var first, dup SyncReply
	args := SyncArgs{ClientID: 0, Round: 1, Base: 0, Frame: testFrame(fed.Payload{2, 4})}
	if err := conns[0].Call(methodSync, args, &first); err != nil {
		t.Fatal(err)
	}
	if err := conns[0].Call(methodSync, args, &dup); err != nil {
		t.Fatalf("retransmit errored instead of being answered idempotently: %v", err)
	}

	// Client 1's submission fills the 2-buffer and commits. If the
	// retransmit had been buffered, the commit would have fired early with
	// two copies of client 0's delta.
	var reply SyncReply
	if err := conns[1].Call(methodSync,
		SyncArgs{ClientID: 1, Round: 1, Base: 0, Frame: testFrame(fed.Payload{4, 8})}, &reply); err != nil {
		t.Fatal(err)
	}
	if got := srv.Global(); got[0] != 3 || got[1] != 6 {
		t.Fatalf("global %v, want the dedup'd mean [3 6]", got)
	}
	reports := srv.Reports()
	if len(reports) != 1 {
		t.Fatalf("%d rounds committed, want 1", len(reports))
	}
	rep := reports[0]
	if rep.Arrived != 2 || rep.Participants != 2 || rep.DupDrops != 1 {
		t.Fatalf("commit report %+v, want 2 arrivals and 1 dup drop", rep)
	}
}

// dropOnceDownload fails the first Download after being armed, forcing the
// real client retry path to retransmit its Sync with the same sequence
// number. It stays disarmed through Dial so the join-time install succeeds.
type dropOnceDownload struct {
	fed.Transport
	mu    sync.Mutex
	armed bool
	left  int
}

func (d *dropOnceDownload) arm(n int) {
	d.mu.Lock()
	d.armed, d.left = true, n
	d.mu.Unlock()
}

func (d *dropOnceDownload) Download(c *fed.Client, p fed.Payload) error {
	d.mu.Lock()
	drop := d.armed && d.left > 0
	if drop {
		d.left--
	}
	d.mu.Unlock()
	if drop {
		return fmt.Errorf("%w: download dropped (test)", fed.ErrInjectedFault)
	}
	return d.Transport.Download(c, p)
}

// TestAsyncClientRetryIsIdempotent drives the dedup through the real client
// retry machinery: client 0's Sync succeeds server-side but the local install
// fails (injected via the fault-transport error), so syncRound retries the
// whole exchange — same seq — and the server must answer without
// double-applying the delta. One failed install costs exactly one retry on
// every codec: in the delta row the client holds a reference when the install
// fails (one clean round and a fetch come first), the server has already
// rotated past it when it framed the reply, and the wire's client end clears
// it at once instead of spending a second retry on a mismatch it can foresee.
func TestAsyncClientRetryIsIdempotent(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codec fedcore.CodecConfig
	}{
		{"identity", fedcore.CodecConfig{}},
		{"i8+delta", fedcore.CodecConfig{Tier: fedcore.TierI8, Delta: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			transport := fed.PublicCriticTransport{}
			locals := []*fed.Client{newLocalClient(t, 0, 5), newLocalClient(t, 1, 6)}
			srv, addr := startConfigured(t, ServerConfig{
				Clients: 2, K: 2, Seed: 42, InitialGlobal: mustUpload(t, transport, locals[0]), Aggregator: fed.FedAvg{},
				Async: true, StalenessBound: -1, Buffer: 2, Codec: tc.codec,
			})

			faulty := &dropOnceDownload{Transport: transport}
			rc0, err := DialOptions(addr, locals[0], faulty, Options{Retries: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer rc0.Close()
			rc1, err := DialOptions(addr, locals[1], transport, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer rc1.Close()

			commits := 1
			if tc.codec.Delta {
				// A clean round, committed by rc1's arrival; rc0 collects its
				// result now so the armed drop hits the next Sync's install.
				commits = 2
				for _, rc := range []*RemoteClient{rc0, rc1} {
					if err := rc.RunRounds(1, 1); err != nil {
						t.Fatal(err)
					}
				}
				if got, err := rc0.Fetch(); err != nil || !got {
					t.Fatalf("fetch of the clean round: installed=%v err=%v", got, err)
				}
			}
			faulty.arm(1)

			// rc0's exchange: Sync accepted (buffered), Download fails, retry
			// resends the same seq → duplicate → idempotent reply → install
			// succeeds.
			if err := rc0.RunRounds(1, 1); err != nil {
				t.Fatal(err)
			}
			if rc0.Stats().Retries != 1 {
				t.Fatalf("retries %d, want exactly 1", rc0.Stats().Retries)
			}
			// rc1 fills the buffer and commits.
			if err := rc1.RunRounds(1, 1); err != nil {
				t.Fatal(err)
			}
			reports := srv.Reports()
			if len(reports) != commits {
				t.Fatalf("%d rounds committed, want %d (the retransmit must not advance the buffer)", len(reports), commits)
			}
			if rep := reports[commits-1]; rep.Arrived != 2 || rep.DupDrops != 1 {
				t.Fatalf("commit report %+v, want 2 arrivals and 1 dup drop", rep)
			}
		})
	}
}

// TestLostReplyRecoversThroughRefMismatch is the failure the client cannot
// foresee: the server framed a reply — rotating the client's delta reference
// — that the client never saw. The next uplink is a delta against a tag the
// server no longer holds; the server answers msgRefMismatch, the client goes
// absolute, and the round lands on the one retry it is allowed.
func TestLostReplyRecoversThroughRefMismatch(t *testing.T) {
	transport := fed.PublicCriticTransport{}
	local := newLocalClient(t, 0, 5)
	srv, addr := startConfigured(t, ServerConfig{
		Clients: 1, K: 1, Seed: 42, InitialGlobal: mustUpload(t, transport, local), Aggregator: fed.FedAvg{},
		Async: true, StalenessBound: -1, Codec: fedcore.CodecConfig{Tier: fedcore.TierI8, Delta: true},
	})
	rc, err := DialOptions(addr, local, transport, Options{Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	// One clean round: the reply is tagged, the client adopts it.
	if err := rc.RunRounds(1, 1); err != nil {
		t.Fatal(err)
	}

	// The lost reply: a second connection fetches on the client's behalf, so
	// the server frames (and rotates) for client 0 and the client never knows.
	conn := dialRaw(t, addr)
	var lost FetchReply
	if err := conn.Call(methodFetch, FetchArgs{ClientID: rc.ID(), Base: -1}, &lost); err != nil || lost.RefTag == 0 {
		t.Fatalf("stand-in fetch: tag %#x err %v, want a tagged reply", lost.RefTag, err)
	}

	sink := &obs.MemorySink{}
	defer obs.SetSink(obs.SetSink(sink))
	if err := rc.RunRounds(1, 1); err != nil {
		t.Fatalf("round after the lost reply: %v", err)
	}
	if rc.Stats().Retries != 1 || srv.Rounds() != 2 {
		t.Fatalf("retries %d rounds %d, want the round to land on its one retry", rc.Stats().Retries, srv.Rounds())
	}
	var causes []string
	for _, ev := range sink.Events() {
		if ev.Type != "rpc_retry" {
			continue
		}
		for _, f := range ev.Fields() {
			if f.Key == "error" {
				causes = append(causes, f.Str)
			}
		}
	}
	if len(causes) != 1 || !serverSaid(errors.New(causes[0]), msgRefMismatch) {
		t.Fatalf("retry causes %q, want exactly one %q", causes, msgRefMismatch)
	}
}

// TestAsyncFetchDeliversCommittedResults pins the pull half of the async
// protocol: a client that submitted before a commit collects its committed
// personalized payload via Fetch on its next contact, exactly once.
func TestAsyncFetchDeliversCommittedResults(t *testing.T) {
	initial := fed.Payload{0, 0}
	srv, addr := startAsyncServer(t, 2, 2, -1, 2, fed.FedAvg{}, initial)

	conns := make([]*rpcClient, 2)
	for i := range conns {
		conn := dialRaw(t, addr)
		rawJoin(t, conn)
		conns[i] = conn
	}

	var r0, r1 SyncReply
	if err := conns[0].Call(methodSync,
		SyncArgs{ClientID: 0, Round: 1, Base: 0, Frame: testFrame(fed.Payload{2, 4})}, &r0); err != nil {
		t.Fatal(err)
	}
	// Pre-commit reply: current global, round still 0.
	if r0.Participant || r0.Round != 0 {
		t.Fatalf("pre-commit reply %+v", r0)
	}
	if err := conns[1].Call(methodSync,
		SyncArgs{ClientID: 1, Round: 1, Base: 0, Frame: testFrame(fed.Payload{4, 8})}, &r1); err != nil {
		t.Fatal(err)
	}
	// Trigger client: personalized payload in the reply, round advanced.
	if !r1.Participant || r1.Round != 1 {
		t.Fatalf("trigger reply %+v", r1)
	}

	// Client 0 fetches its retained personalized payload.
	var f0 FetchReply
	if err := conns[0].Call(methodFetch, FetchArgs{ClientID: 0, Base: 0}, &f0); err != nil {
		t.Fatal(err)
	}
	if !f0.Has || !f0.Participant || f0.Round != 1 {
		t.Fatalf("fetch reply %+v, want retained personalized payload", f0)
	}
	// A second fetch from the advanced base: nothing new.
	var f1 FetchReply
	if err := conns[0].Call(methodFetch, FetchArgs{ClientID: 0, Base: f0.Round}, &f1); err != nil {
		t.Fatal(err)
	}
	if f1.Has {
		t.Fatalf("fetch after install returned new state: %+v", f1)
	}
	_ = srv
}

// TestAsyncStaleSubmissionDropped pins the staleness cap end to end over
// RPC: with bound 0, a delta based two rounds back is dropped into the next
// report, not mixed.
func TestAsyncStaleSubmissionDropped(t *testing.T) {
	initial := fed.Payload{0}
	srv, addr := startAsyncServer(t, 2, 2, 0, 1, fed.FedAvg{}, initial)

	conns := make([]*rpcClient, 2)
	for i := range conns {
		conn := dialRaw(t, addr)
		rawJoin(t, conn)
		conns[i] = conn
	}

	var reply SyncReply
	// Client 0 commits rounds 1 and 2 (buffer 1: every accepted submission
	// commits).
	if err := conns[0].Call(methodSync,
		SyncArgs{ClientID: 0, Round: 1, Base: 0, Frame: testFrame(fed.Payload{1})}, &reply); err != nil {
		t.Fatal(err)
	}
	if err := conns[0].Call(methodSync,
		SyncArgs{ClientID: 0, Round: 2, Base: 1, Frame: testFrame(fed.Payload{2})}, &reply); err != nil {
		t.Fatal(err)
	}
	// Client 1 is still on base 0: two rounds stale, dropped under bound 0.
	if err := conns[1].Call(methodSync,
		SyncArgs{ClientID: 1, Round: 1, Base: 0, Frame: testFrame(fed.Payload{9})}, &reply); err != nil {
		t.Fatal(err)
	}
	if g := srv.Global(); g[0] != 2 {
		t.Fatalf("stale delta leaked into the global: %v", g)
	}
	// The drop surfaces in the next committed report.
	if err := conns[0].Call(methodSync,
		SyncArgs{ClientID: 0, Round: 3, Base: 2, Frame: testFrame(fed.Payload{3})}, &reply); err != nil {
		t.Fatal(err)
	}
	reports := srv.Reports()
	if last := reports[len(reports)-1]; last.StaleDrops != 1 {
		t.Fatalf("stale drop not reported: %+v", last)
	}
}

// TestUnjoinedClientRefused pins DESIGN §9 contract 15: an id inside the
// configured fleet that no Join handed out is refused on both async RPCs —
// nothing is decoded, submitted or counted.
func TestUnjoinedClientRefused(t *testing.T) {
	srv, addr := startAsyncServer(t, 2, 2, -1, 1, fed.FedAvg{}, fed.Payload{0, 0})
	conn := dialRaw(t, addr)
	if id := rawJoin(t, conn).ClientID; id != 0 {
		t.Fatalf("first join got slot %d", id)
	}
	var reply SyncReply
	err := conn.Call(methodSync, SyncArgs{ClientID: 1, Round: 1, Base: 0, Frame: testFrame(fed.Payload{2, 4})}, &reply)
	if err == nil || !strings.Contains(err.Error(), "unknown client") {
		t.Fatalf("Sync as the unjoined id 1: err %v, want unknown client", err)
	}
	var fetch FetchReply
	err = conn.Call(methodFetch, FetchArgs{ClientID: 1, Base: -1}, &fetch)
	if err == nil || !strings.Contains(err.Error(), "unknown client") {
		t.Fatalf("Fetch as the unjoined id 1: err %v, want unknown client", err)
	}
	if reports := srv.Reports(); len(reports) != 0 {
		t.Fatalf("an unjoined id's Sync was committed: %+v", reports)
	}
}

// TestFetchRejectedOnSyncServer pins the protocol boundary: Fetch is an
// async-only RPC.
func TestFetchRejectedOnSyncServer(t *testing.T) {
	transport := fed.PublicCriticTransport{}
	local := newLocalClient(t, 0, 9)
	initial := mustUpload(t, transport, local)
	_, addr := startServer(t, 1, 1, fed.FedAvg{}, initial)
	conn := dialRaw(t, addr)
	rawJoin(t, conn)
	var reply FetchReply
	if err := conn.Call(methodFetch, FetchArgs{ClientID: 0}, &reply); err == nil {
		t.Fatal("sync server accepted an async Fetch")
	}
	var srvErr serverError
	if cerr := conn.Call(methodFetch, FetchArgs{ClientID: 0}, &reply); !errors.As(cerr, &srvErr) {
		t.Fatalf("unexpected error shape: %v", cerr)
	}
}

// TestAsyncRejoinReportsServerRound: an async client's Round is the server
// round it is in step with — the round of the last global it installed — not
// its local submission seq, which restarts at 0 on every (re)join. A client
// that rejoins after two commits reports round 2.
func TestAsyncRejoinReportsServerRound(t *testing.T) {
	transport := fed.PublicCriticTransport{}
	local := newLocalClient(t, 0, 130)
	srv, addr := startAsyncServer(t, 2, 2, -1, 1, fed.FedAvg{}, mustUpload(t, transport, local))
	rc, err := DialOptions(addr, local, transport, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rc.Round() != 0 {
		t.Fatalf("fresh joiner at round %d, want 0", rc.Round())
	}
	// Buffer 1: each of the two syncs commits a round.
	if err := rc.RunRounds(2, 1); err != nil {
		t.Fatal(err)
	}
	if srv.Rounds() != 2 || rc.Round() != 2 {
		t.Fatalf("server rounds %d, client round %d, want both 2", srv.Rounds(), rc.Round())
	}
	rc.Close()

	rejoined, err := DialOptions(addr, newLocalClient(t, 0, 131), transport, Options{Rejoin: true, RejoinID: rc.ID()})
	if err != nil {
		t.Fatal(err)
	}
	defer rejoined.Close()
	if rejoined.Round() != 2 {
		t.Fatalf("rejoined at round %d, want 2", rejoined.Round())
	}
}

// nanUploads poisons the next n uploads with a NaN in their last scalar.
type nanUploads struct {
	fed.Transport
	mu   sync.Mutex
	left int
}

func (tr *nanUploads) Upload(c *fed.Client) (fed.Payload, error) {
	p, err := tr.Transport.Upload(c)
	if err != nil {
		return nil, err
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.left > 0 {
		tr.left--
		p[len(p)-1] = math.NaN()
	}
	return p, nil
}

// TestAsyncNonFiniteUploadRetried pins an async server's answer to a
// non-finite upload over RPC (DESIGN §9 contract 13): the retryable
// msgBadUpload, with the seq not consumed, so the client's rebuilt retry of
// the same seq lands as a fresh arrival and fills the buffer.
func TestAsyncNonFiniteUploadRetried(t *testing.T) {
	transport := fed.PublicCriticTransport{}
	locals := []*fed.Client{newLocalClient(t, 0, 140), newLocalClient(t, 1, 141)}
	srv, addr := startAsyncServer(t, 2, 2, -1, 2, fed.FedAvg{}, mustUpload(t, transport, locals[0]))

	// The bare RPC answer.
	conn := dialRaw(t, addr)
	id := rawJoin(t, conn).ClientID
	poisoned := mustUpload(t, transport, locals[0])
	poisoned[0] = math.Inf(1)
	var reply SyncReply
	err := conn.Call(methodSync, SyncArgs{ClientID: id, Round: 1, Base: 0, Frame: testFrame(poisoned)}, &reply)
	if retry, redial := retryable(err); !serverSaid(err, msgBadUpload) || !retry || redial {
		t.Fatalf("non-finite Sync: err %v (retry %v, redial %v), want a retryable %q", err, retry, redial, msgBadUpload)
	}
	conn.Close()

	// The client's retry loop: the rejoined slot's first upload is poisoned,
	// its retry of the same seq is clean.
	rc0, err := DialOptions(addr, locals[0], &nanUploads{Transport: transport, left: 1},
		Options{Retries: 1, RetryBase: time.Millisecond, Seed: 5, Rejoin: true, RejoinID: id})
	if err != nil {
		t.Fatal(err)
	}
	defer rc0.Close()
	rc1, err := DialOptions(addr, locals[1], transport, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc1.Close()
	if err := rc0.RunRounds(1, 1); err != nil {
		t.Fatalf("a non-finite upload must be retried, got %v", err)
	}
	if st := rc0.Stats(); st.Retries != 1 {
		t.Fatalf("stats %+v, want exactly one retry", st)
	}
	if err := rc1.RunRounds(1, 1); err != nil {
		t.Fatal(err)
	}
	reports := srv.Reports()
	if len(reports) != 1 {
		t.Fatalf("%d rounds committed, want 1: the retry must count as a fresh arrival", len(reports))
	}
	if rep := reports[0]; rep.Arrived != 2 || rep.Participants != 2 || rep.DupDrops != 0 || rep.UploadDrops != 2 {
		t.Fatalf("commit report %+v, want 2 arrivals, no dup and the 2 rejections in UploadDrops", rep)
	}
	for d, v := range srv.Global() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("global[%d] = %v", d, v)
		}
	}
}

// spreadAggregator personalizes visibly: the global is the uploads' mean and
// participant i receives the mean shifted by i+1, so a reply shows whether it
// carried a personalized payload or the global, and of which commit.
type spreadAggregator struct{}

func (spreadAggregator) Name() string { return "spread" }

func (spreadAggregator) Aggregate(uploads []fed.Payload) ([]fed.Payload, fed.Payload) {
	global := make(fed.Payload, len(uploads[0]))
	for _, u := range uploads {
		for j, v := range u {
			global[j] += v / float64(len(uploads))
		}
	}
	personalized := make([]fed.Payload, len(uploads))
	for i := range uploads {
		personalized[i] = make(fed.Payload, len(global))
		for j, v := range global {
			personalized[i][j] = v + float64(i+1)
		}
	}
	return personalized, global
}

// committed is one commit as the engine delivered it, copied.
type committed struct {
	global       fed.Payload
	personalized map[int]fed.Payload
}

// asyncReply is one Sync or Fetch answer, decoded.
type asyncReply struct {
	client, round int
	participant   bool
	payload       fed.Payload
	what          string
}

// TestAsyncRepliesFrameCommittedGlobal pins that an async reply framed from
// the engine's stored global without a copy carries what was committed: eight
// clients Sync and Fetch concurrently across several commits, and every reply
// decodes to the client's personalized payload from the last commit it took
// part in, or else to the global committed at the reply's round — never to a
// payload a later commit rewrote under the frame.
func TestAsyncRepliesFrameCommittedGlobal(t *testing.T) {
	// K below the buffer: the submission that triggers a commit is often not
	// drawn, so its reply frames the fresh global first thing after the
	// commit — the frame a stale encode-once cache would get wrong.
	const clients, syncs, k, buffer = 8, 6, 2, 4
	initial := fed.Payload{0, 0, 0}
	srv, err := NewServer(ServerConfig{
		Clients: clients, K: k, Seed: 42, InitialGlobal: initial, Aggregator: spreadAggregator{},
		Async: true, StalenessBound: -1, Buffer: buffer,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Re-build the engine with a delivery that records each commit before
	// the server retains it, then listen.
	var commits []committed
	engine, err := fedcore.NewAsync(spreadAggregator{}, initial, fedcore.AsyncOptions{
		Options:        fedcore.Options{K: k, Clients: clients, Seed: 42},
		StalenessBound: -1,
		Buffer:         buffer,
	}, func(personalized map[int]fedcore.Payload, global fedcore.Payload) (int, time.Duration) {
		c := committed{global: append(fed.Payload(nil), global...), personalized: map[int]fed.Payload{}}
		for id, p := range personalized {
			c.personalized[id] = append(fed.Payload(nil), p...)
		}
		commits = append(commits, c)
		return srv.retainPersonalized(personalized, global)
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.engine = engine
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	var mu sync.Mutex
	var replies []asyncReply
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		conn := dialRaw(t, addr)
		id := rawJoin(t, conn).ClientID
		wg.Add(1)
		go func(conn *rpcClient, id int) {
			defer wg.Done()
			base := 0
			for seq := 1; seq <= syncs; seq++ {
				up := fed.Payload{float64(id), float64(seq), float64(id * seq)}
				var sr SyncReply
				if err := conn.Call(methodSync, SyncArgs{ClientID: id, Round: seq, Base: base, Frame: testFrame(up)}, &sr); err != nil {
					t.Error(err)
					return
				}
				p, _, err := fedcore.DecodeFrame(sr.Frame, nil, nil)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				replies = append(replies, asyncReply{id, sr.Round, sr.Participant, p, "sync"})
				mu.Unlock()
				base = sr.Round

				var fr FetchReply
				if err := conn.Call(methodFetch, FetchArgs{ClientID: id, Base: base - 1}, &fr); err != nil {
					t.Error(err)
					return
				}
				if !fr.Has {
					continue
				}
				p, _, err = fedcore.DecodeFrame(fr.Frame, nil, nil)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				replies = append(replies, asyncReply{id, fr.Round, fr.Participant, p, "fetch"})
				mu.Unlock()
				base = fr.Round
			}
		}(conn, id)
	}
	wg.Wait()

	srv.mu.Lock() // commits was written under it
	defer srv.mu.Unlock()
	if len(commits) < 3 {
		t.Fatalf("%d commits, want at least 3", len(commits))
	}
	globalAt := func(round int) fed.Payload {
		if round == 0 {
			return initial
		}
		return commits[round-1].global
	}
	for _, r := range replies {
		want := globalAt(r.round)
		if r.participant {
			want = nil
			for c := r.round - 1; c >= 0 && want == nil; c-- {
				want = commits[c].personalized[r.client]
			}
		}
		if want == nil || !slices.Equal(r.payload, want) {
			t.Fatalf("client %d %s at round %d (participant %v) installed %v, want %v", r.client, r.what, r.round, r.participant, r.payload, want)
		}
	}
}
