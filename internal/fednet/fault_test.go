package fednet

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fed"
	"repro/internal/fedcore"
)

// recordingTransport remembers the last successful upload per client so
// tests can check what actually crossed the wire.
type recordingTransport struct {
	fed.Transport
	mu   sync.Mutex
	last map[int]fed.Payload
}

func newRecordingTransport(inner fed.Transport) *recordingTransport {
	return &recordingTransport{Transport: inner, last: map[int]fed.Payload{}}
}

func (r *recordingTransport) Upload(c *fed.Client) (fed.Payload, error) {
	p, err := r.Transport.Upload(c)
	if err == nil {
		r.mu.Lock()
		r.last[c.ID] = append(fed.Payload(nil), p...)
		r.mu.Unlock()
	}
	return p, err
}

// truncOnceTransport corrupts the first n uploads to the wrong length —
// the flaky-serializer scenario behind msgBadUpload retries.
type truncOnceTransport struct {
	fed.Transport
	mu   sync.Mutex
	left int
}

func (tr *truncOnceTransport) Upload(c *fed.Client) (fed.Payload, error) {
	p, err := tr.Transport.Upload(c)
	if err != nil {
		return nil, err
	}
	tr.mu.Lock()
	corrupt := tr.left > 0
	if corrupt {
		tr.left--
	}
	tr.mu.Unlock()
	if corrupt {
		return p[:len(p)-1], nil
	}
	return p, nil
}

// TestKillMidRoundThenRejoin is the acceptance scenario: three clients,
// one dies before uploading. The server's round deadline closes the round
// with the two arrivals (participation-weighted aggregation over exactly
// those two), and the dead client later rejoins, receives the current
// global model, and the full federation completes the next round.
func TestKillMidRoundThenRejoin(t *testing.T) {
	const n = 3
	transport := newRecordingTransport(fed.PublicCriticTransport{})
	ref := newLocalClient(t, 99, 5)
	srv, err := NewServer(ServerConfig{
		Clients: n, K: n, Seed: 42,
		InitialGlobal: mustUpload(t, transport, ref),
		Aggregator:    fed.FedAvg{},
		RoundTimeout:  300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	clients := make([]*RemoteClient, n)
	for i := 0; i < n; i++ {
		local := newLocalClient(t, i, int64(i)+10)
		rc, err := DialOptions(addr, local, transport, Options{})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = rc
	}

	// Client 2 is killed mid-round: registered, but its process dies before
	// it can upload.
	deadID := clients[2].ID()
	clients[2].Close()

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = clients[i].RunRounds(1, 1)
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("surviving client %d: %v", i, errs[i])
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("round took %v; the deadline did not fire", elapsed)
	}
	if srv.Rounds() != 1 {
		t.Fatalf("server rounds %d, want 1", srv.Rounds())
	}
	reports := srv.Reports()
	if len(reports) != 1 {
		t.Fatalf("%d reports", len(reports))
	}
	rep := reports[0]
	if !rep.TimedOut || rep.Arrived != 2 || rep.Participants != 2 || rep.Expected != n {
		t.Fatalf("round report %+v, want timed-out 2-of-3", rep)
	}

	// Participation-weighted FedAvg over exactly the two arrivals: the new
	// global is their mean, accumulated the way fedcore.ReduceMeanInto does.
	u0, u1 := transport.last[clients[0].Local.ID], transport.last[clients[1].Local.ID]
	global := srv.Global()
	if len(u0) == 0 || len(u0) != len(global) {
		t.Fatalf("recorded upload length %d vs global %d", len(u0), len(global))
	}
	for d := range global {
		want := (u0[d] + u1[d]) * 0.5
		if global[d] != want {
			t.Fatalf("global[%d] = %v, want the 2-client mean %v", d, global[d], want)
		}
	}

	// The dead client restarts and rejoins its old slot. It must come back
	// with the server's *current* global payload and round counter, not the
	// state it died with.
	relocal := newLocalClient(t, 2, 777)
	rejoined, err := DialOptions(addr, relocal, transport, Options{Rejoin: true, RejoinID: deadID})
	if err != nil {
		t.Fatal(err)
	}
	if rejoined.ID() != deadID {
		t.Fatalf("rejoined as %d, want slot %d", rejoined.ID(), deadID)
	}
	if rejoined.Round() != 1 {
		t.Fatalf("rejoined at round %d, want 1", rejoined.Round())
	}
	got := mustUpload(t, fed.PublicCriticTransport{}, relocal)
	for d := range global {
		if got[d] != global[d] {
			t.Fatalf("rejoined client's params diverge from current global at %d", d)
		}
	}

	// Full federation completes the next round on the full barrier.
	all := []*RemoteClient{clients[0], clients[1], rejoined}
	errs3 := make([]error, len(all))
	for i, rc := range all {
		wg.Add(1)
		go func(i int, rc *RemoteClient) {
			defer wg.Done()
			errs3[i] = rc.RunRounds(1, 1)
		}(i, rc)
	}
	wg.Wait()
	for i, err := range errs3 {
		if err != nil {
			t.Fatalf("post-rejoin client %d: %v", i, err)
		}
	}
	if srv.Rounds() != 2 {
		t.Fatalf("server rounds %d, want 2", srv.Rounds())
	}
	rep = srv.Reports()[1]
	if rep.TimedOut || rep.Arrived != 3 {
		t.Fatalf("post-rejoin report %+v, want full 3-client barrier", rep)
	}
	for _, rc := range all {
		rc.Close()
	}
}

// TestRetainedResultAfterLostReply: a client that re-sends its Sync after
// the round completed (its reply was lost) gets the identical retained
// result instead of an error.
func TestRetainedResultAfterLostReply(t *testing.T) {
	transport := fed.PublicCriticTransport{}
	ref := newLocalClient(t, 99, 90)
	_, addr := startServer(t, 2, 2, fed.FedAvg{}, mustUpload(t, transport, ref))

	rcs := make([]*RemoteClient, 2)
	uploads := make([]fed.Payload, 2)
	for i := range rcs {
		local := newLocalClient(t, i, int64(i)+91)
		rc, err := DialOptions(addr, local, transport, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		rcs[i] = rc
		local.TrainEpisodes(1)
		uploads[i] = mustUpload(t, transport, local)
	}

	first := make([]SyncReply, 2)
	var wg sync.WaitGroup
	for i, rc := range rcs {
		wg.Add(1)
		go func(i int, rc *RemoteClient) {
			defer wg.Done()
			args := SyncArgs{ClientID: rc.ID(), Round: 0, Frame: testFrame(uploads[i])}
			if err := rc.rpc.Call(methodSync, args, &first[i]); err != nil {
				t.Error(err)
			}
		}(i, rc)
	}
	wg.Wait()

	// Client 0 retries round 0 — as after a lost reply or a duplicate send.
	var again SyncReply
	args := SyncArgs{ClientID: rcs[0].ID(), Round: 0, Frame: testFrame(uploads[0])}
	if err := rcs[0].rpc.Call(methodSync, args, &again); err != nil {
		t.Fatalf("retained-result retry failed: %v", err)
	}
	ap, fp := testDecode(t, again.Frame), testDecode(t, first[0].Frame)
	if len(ap) != len(fp) || again.Participant != first[0].Participant {
		t.Fatal("retained result differs in shape from the original reply")
	}
	for d := range ap {
		if ap[d] != fp[d] {
			t.Fatal("retained result differs from the original reply")
		}
	}
}

// TestStragglerResyncsViaRejoin: a client that missed its round entirely is
// told the round passed, rejoins its slot to re-download the current global,
// and continues with an aligned round counter instead of a poisoned one. The
// rejoin voids the delta reference at both ends of the wire, so the
// straggler's next upload is absolute and lands with no retry.
func TestStragglerResyncsViaRejoin(t *testing.T) {
	transport := fed.PublicCriticTransport{}
	ref := newLocalClient(t, 99, 95)
	srv, err := NewServer(ServerConfig{
		Clients: 2, K: 2, Seed: 42,
		InitialGlobal: mustUpload(t, transport, ref),
		Aggregator:    fed.FedAvg{},
		RoundTimeout:  300 * time.Millisecond,
		Codec:         fedcore.CodecConfig{Tier: fedcore.TierI8, Delta: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	fast := newLocalClient(t, 0, 96)
	rcFast, err := DialOptions(addr, fast, transport, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rcFast.Close()
	slow := newLocalClient(t, 1, 97)
	rcSlow, err := DialOptions(addr, slow, transport, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rcSlow.Close()

	// Round 0 closes on the full barrier (no training, so both arrive well
	// inside the deadline): each client installs its reply as its delta
	// reference, under the tag the server end holds.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, rc := range []*RemoteClient{rcFast, rcSlow} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = rc.RunRounds(1, 0)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	tag := srv.lastResults[rcSlow.ID()].RefTag
	srv.mu.Unlock()
	if tag == 0 {
		t.Fatal("straggler was sent no delta reference in round 0")
	}

	// The fast client runs round 1 alone; the deadline closes it.
	if err := rcFast.RunRounds(1, 1); err != nil {
		t.Fatal(err)
	}
	if srv.Rounds() != 2 {
		t.Fatalf("rounds %d", srv.Rounds())
	}

	// The straggler now tries round 1, learns it passed, and rejoins.
	if err := rcSlow.RunRounds(1, 1); err != nil {
		t.Fatalf("straggler should recover, got %v", err)
	}
	if rcSlow.Round() != 2 {
		t.Fatalf("straggler round %d, want 2 (server-aligned)", rcSlow.Round())
	}
	got := mustUpload(t, transport, slow)
	global := srv.Global()
	for d := range global {
		if got[d] != global[d] {
			t.Fatal("straggler did not adopt the current global payload")
		}
	}
	enc := fedcore.NewEncoder(fedcore.CodecConfig{Tier: fedcore.TierI8, Delta: true})
	enc.SetRef(tag, got)
	srv.mu.Lock()
	_, err = srv.wire.Decode(rcSlow.ID(), enc.Encode(got), nil)
	srv.mu.Unlock()
	if !errors.Is(err, fedcore.ErrRefMismatch) {
		t.Fatalf("a delta against the pre-rejoin reference decoded with %v, want a mismatch", err)
	}

	// Round 2: the server end holds no reference, so a delta upload would be
	// refused as a mismatch — fatal under the zero-retry Options. The
	// straggler's upload is accepted on the first attempt, so it went
	// absolute, and it is aggregated.
	if err := rcSlow.RunRounds(1, 1); err != nil {
		t.Fatalf("straggler's next upload: %v", err)
	}
	reports := srv.Reports()
	if len(reports) != 3 || reports[2].Arrived != 1 || reports[2].Participants != 1 {
		t.Fatalf("round 2 report %+v, want the straggler's upload aggregated", reports[len(reports)-1])
	}
	if st := rcSlow.Stats(); st.Resyncs != 1 || st.Retries != 0 {
		t.Fatalf("straggler stats %+v, want one resync and no retry", st)
	}
}

// TestBadUploadRejected: a corrupt-length upload is refused with the
// msgBadUpload prefix and does not enter the round.
func TestBadUploadRejected(t *testing.T) {
	transport := fed.PublicCriticTransport{}
	ref := newLocalClient(t, 99, 100)
	srv, addr := startServer(t, 1, 1, fed.FedAvg{}, mustUpload(t, transport, ref))
	local := newLocalClient(t, 0, 101)
	rc, err := DialOptions(addr, local, transport, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	full := mustUpload(t, transport, local)
	var reply SyncReply
	err = rc.rpc.Call(methodSync,
		SyncArgs{ClientID: rc.ID(), Round: 0, Frame: testFrame(full[:len(full)-1])}, &reply)
	if err == nil || !strings.Contains(err.Error(), msgBadUpload) {
		t.Fatalf("err %v, want %q rejection", err, msgBadUpload)
	}
	if srv.Rounds() != 0 {
		t.Fatal("corrupt upload must not advance the round")
	}
}

// TestBadUploadRetriedWithRebuiltPayload: when the corruption is transient
// (serializer flake), the client classifies the server's rejection as
// retryable, rebuilds the payload, and completes the round.
func TestBadUploadRetriedWithRebuiltPayload(t *testing.T) {
	plain := fed.PublicCriticTransport{}
	ref := newLocalClient(t, 99, 105)
	srv, addr := startServer(t, 1, 1, fed.FedAvg{}, mustUpload(t, plain, ref))

	flaky := &truncOnceTransport{Transport: plain, left: 1}
	local := newLocalClient(t, 0, 106)
	rc, err := DialOptions(addr, local, flaky, Options{
		Retries: 3, RetryBase: time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if err := rc.RunRounds(1, 1); err != nil {
		t.Fatalf("flaky upload should be retried, got %v", err)
	}
	if srv.Rounds() != 1 {
		t.Fatalf("rounds %d", srv.Rounds())
	}
	if st := rc.Stats(); st.Retries != 1 {
		t.Fatalf("stats %+v, want exactly one retry", st)
	}
}

// TestClientRetriesThroughInjectedFaults drives a two-client federation
// through per-client fault injectors (drops on upload and download) and
// requires every round to complete anyway via the retry path.
func TestClientRetriesThroughInjectedFaults(t *testing.T) {
	plain := fed.PublicCriticTransport{}
	ref := newLocalClient(t, 99, 110)
	srv, addr := startServer(t, 2, 2, fed.FedAvg{}, mustUpload(t, plain, ref))

	rcs := make([]*RemoteClient, 2)
	for i := range rcs {
		local := newLocalClient(t, i, int64(i)+111)
		// Each client owns its injector, so its fault schedule is
		// deterministic regardless of goroutine interleaving.
		faulty := fed.NewFaultyTransport(plain, fed.FaultSpec{Drop: 0.3, Seed: int64(i) + 5})
		rc, err := DialOptions(addr, local, faulty, Options{
			Retries: 25, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond, Seed: int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		rcs[i] = rc
	}

	var wg sync.WaitGroup
	errs := make([]error, len(rcs))
	for i, rc := range rcs {
		wg.Add(1)
		go func(i int, rc *RemoteClient) {
			defer wg.Done()
			errs[i] = rc.RunRounds(3, 1)
			rc.Close()
		}(i, rc)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if srv.Rounds() != 3 {
		t.Fatalf("rounds %d, want 3", srv.Rounds())
	}
	total := 0
	for _, rc := range rcs {
		total += rc.Stats().Retries
	}
	if total == 0 {
		t.Fatal("with 30% drops someone must have retried")
	}
}

// TestCallTimeoutGivesUp: a Sync blocked forever on a barrier that can
// never fill times out, retries over a fresh connection, and finally
// surfaces ErrRPCTimeout instead of hanging.
func TestCallTimeoutGivesUp(t *testing.T) {
	transport := fed.PublicCriticTransport{}
	ref := newLocalClient(t, 99, 115)
	// Server waits for 2 clients; only one ever dials, and no RoundTimeout
	// is set — the barrier never opens.
	_, addr := startServer(t, 2, 2, fed.FedAvg{}, mustUpload(t, transport, ref))
	local := newLocalClient(t, 0, 116)
	rc, err := DialOptions(addr, local, transport, Options{
		CallTimeout: 50 * time.Millisecond,
		Retries:     1, RetryBase: time.Millisecond, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	err = rc.RunRounds(1, 1)
	if !errors.Is(err, ErrRPCTimeout) {
		t.Fatalf("err %v, want ErrRPCTimeout", err)
	}
	st := rc.Stats()
	if st.Timeouts != 2 || st.Retries != 1 {
		t.Fatalf("stats %+v, want 2 timeouts / 1 retry", st)
	}
}

// TestServerCloseReleasesBarrierWaiters: a Sync blocked on a barrier that
// will never fill is released by Server.Close with a non-retryable error —
// the client gives up at once instead of hanging (RoundTimeout = 0 would
// otherwise hold it forever) or burning its retries against a dead server.
func TestServerCloseReleasesBarrierWaiters(t *testing.T) {
	transport := fed.PublicCriticTransport{}
	ref := newLocalClient(t, 99, 120)
	srv, addr := startServer(t, 2, 2, fed.FedAvg{}, mustUpload(t, transport, ref))
	rc, err := DialOptions(addr, newLocalClient(t, 0, 121), transport, Options{
		Retries: 3, RetryBase: time.Millisecond, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	done := make(chan error, 1)
	go func() { done <- rc.RunRounds(1, 1) }()
	// Wait until the upload is pending server-side, i.e. the call is blocked.
	if !awaitArrived(srv, 1) {
		t.Fatal("client never reached the barrier")
	}
	srv.Close()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), msgClosed) {
			t.Fatalf("err %v, want %q", err, msgClosed)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Server.Close left the barrier waiter blocked")
	}
	if st := rc.Stats(); st.Retries != 0 {
		t.Fatalf("stats %+v: a closed server must not be retried", st)
	}
	if srv.Rounds() != 0 {
		t.Fatal("Close must not commit the open round")
	}
	// The answered call was the connection's last: a late caller on it gets
	// no answer, and a call the server still admits is turned away the same
	// way as the waiter.
	args := SyncArgs{ClientID: rc.ID(), Round: 0, Frame: testFrame(srv.Global())}
	var srvErr serverError
	if err := rc.rpc.Call(methodSync, args, &SyncReply{}); err == nil || errors.As(err, &srvErr) {
		t.Fatalf("post-close Sync: err %v, want the connection gone", err)
	}
	if err := srv.sync(args, &SyncReply{}, new([]byte)); err == nil || err.Error() != msgClosed {
		t.Fatalf("post-close Sync admitted: err %v, want %q", err, msgClosed)
	}
}

// awaitArrived polls, for up to five seconds, until srv's open barrier round
// holds n uploads, and reports whether it came to.
func awaitArrived(srv *Server, n int) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		arrived := srv.arrived
		srv.mu.Unlock()
		if arrived == n {
			return true
		}
	}
	return false
}

// TestServerCloseEndsConnections: Close ends the connections it accepted —
// a Join on one of them fails, and every serve loop exits — and a Join the
// server still admits is answered with the non-retryable "server closed".
func TestServerCloseEndsConnections(t *testing.T) {
	srv, addr := startServer(t, 2, 2, fed.FedAvg{}, fed.Payload{0, 0})
	a, b := dialRaw(t, addr), dialRaw(t, addr)
	rawJoin(t, a)
	rawJoin(t, b)
	srv.Close()
	if err := b.Call(methodJoin, JoinArgs{}, &JoinReply{}); err == nil {
		t.Fatal("a Join on a connection the server closed succeeded")
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		serving := len(srv.conns)
		srv.mu.Unlock()
		if serving == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d serve loops still running after Close", serving)
		}
	}
	err := srv.join(JoinArgs{}, &JoinReply{})
	if err == nil || err.Error() != msgClosed {
		t.Fatalf("Join after Close: err %v, want %q", err, msgClosed)
	}
}

// corruptFirstDownload truncates the first payload it is asked to install,
// reporting the inner transport's length rejection as an injected fault —
// exactly what fed.FaultyTransport's corrupt event does — then behaves.
type corruptFirstDownload struct {
	fed.Transport
	done bool
}

func (tr *corruptFirstDownload) Download(c *fed.Client, p fed.Payload) error {
	if tr.done {
		return tr.Transport.Download(c, p)
	}
	tr.done = true
	err := tr.Transport.Download(c, p[:len(p)-1])
	return fmt.Errorf("%w: corrupt-length download (client %d): %v", fed.ErrInjectedFault, c.ID, err)
}

// TestJoinInstallRetriesInjectedFault: the bootstrap global is installed
// through the caller's transport, so a fault injected at join is retried in
// place like any other install instead of failing the dial.
func TestJoinInstallRetriesInjectedFault(t *testing.T) {
	plain := fed.PublicCriticTransport{}
	ref := newLocalClient(t, 99, 125)
	initial := mustUpload(t, plain, ref)
	_, addr := startServer(t, 2, 2, fed.FedAvg{}, initial)

	local := newLocalClient(t, 0, 126)
	rc, err := DialOptions(addr, local, &corruptFirstDownload{Transport: plain}, Options{
		Retries: 2, RetryBase: time.Millisecond, Seed: 4,
	})
	if err != nil {
		t.Fatalf("a corrupt first download must be retried, got %v", err)
	}
	defer rc.Close()
	if st := rc.Stats(); st.Retries != 1 {
		t.Fatalf("stats %+v, want exactly one retry", st)
	}
	got := mustUpload(t, plain, local)
	for d := range initial {
		if got[d] != initial[d] {
			t.Fatal("joiner did not install the bootstrap global")
		}
	}
	// Without retries the strict protocol still surfaces the fault.
	if _, err := DialOptions(addr, newLocalClient(t, 1, 127), &corruptFirstDownload{Transport: plain}, Options{}); !errors.Is(err, fed.ErrInjectedFault) {
		t.Fatalf("strict dial: err %v, want the injected fault", err)
	}
}

// TestBarrierNonFiniteUploadSitsRoundOut pins a barrier server's answer to a
// non-finite upload over RPC (DESIGN §9 contract 13): the upload is admitted
// to the round, rejected at the engine's accept point when the round closes
// and counted in the report's UploadDrops, and its client is answered like a
// non-participant — with the new global, not an error.
func TestBarrierNonFiniteUploadSitsRoundOut(t *testing.T) {
	transport := fed.PublicCriticTransport{}
	ref := newLocalClient(t, 99, 150)
	srv, addr := startServer(t, 2, 2, fed.FedAvg{}, mustUpload(t, transport, ref))

	rcs := make([]*RemoteClient, 2)
	uploads := make([]fed.Payload, 2)
	for i := range rcs {
		local := newLocalClient(t, i, int64(i)+151)
		rc, err := DialOptions(addr, local, transport, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		rcs[i] = rc
		uploads[i] = mustUpload(t, transport, local)
	}
	uploads[0][len(uploads[0])-1] = math.NaN()

	replies := make([]SyncReply, 2)
	var wg sync.WaitGroup
	for i, rc := range rcs {
		wg.Add(1)
		go func(i int, rc *RemoteClient) {
			defer wg.Done()
			args := SyncArgs{ClientID: rc.ID(), Round: 0, Frame: testFrame(uploads[i])}
			if err := rc.rpc.Call(methodSync, args, &replies[i]); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}(i, rc)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	reports := srv.Reports()
	if len(reports) != 1 {
		t.Fatalf("%d rounds, want 1", len(reports))
	}
	if rep := reports[0]; rep.UploadDrops != 1 || rep.Arrived != 2 || rep.Participants != 1 {
		t.Fatalf("round report %+v, want the NaN upload in UploadDrops and 1 participant", rep)
	}
	if replies[0].Participant || !replies[1].Participant {
		t.Fatalf("participant flags %v / %v, want the NaN client out and the clean one in",
			replies[0].Participant, replies[1].Participant)
	}
	global := srv.Global()
	got := testDecode(t, replies[0].Frame)
	for d := range global {
		if math.IsNaN(global[d]) || got[d] != global[d] {
			t.Fatalf("NaN client's reply[%d] = %v, want the finite global %v", d, got[d], global[d])
		}
	}
}

// countingProxy forwards every TCP connection it accepts to target, counting
// the connections and the client-to-server bytes of each, so a test sees a
// client redial and knows when a request crossed the new connection.
type countingProxy struct {
	ln     net.Listener
	target string
	mu     sync.Mutex
	sent   []int // client-to-server bytes per accepted connection
}

func startProxy(t *testing.T, target string) *countingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &countingProxy{ln: ln, target: target}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("tcp", target)
			if err != nil {
				in.Close()
				continue
			}
			p.mu.Lock()
			idx := len(p.sent)
			p.sent = append(p.sent, 0)
			p.mu.Unlock()
			go func() {
				defer out.Close()
				buf := make([]byte, 32<<10)
				for {
					n, err := in.Read(buf)
					if n > 0 {
						p.mu.Lock()
						p.sent[idx] += n
						p.mu.Unlock()
						if _, werr := out.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
			go func() {
				defer in.Close()
				io.Copy(in, out)
			}()
		}
	}()
	return p
}

// conns returns the per-connection byte counts seen so far.
func (p *countingProxy) conns() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]int(nil), p.sent...)
}

// TestTimedOutSyncRedialsOntoItsRound pins the redial half of DESIGN §9
// contract 7: a barrier Sync that times out while its round is still open is
// retried over a new connection, the retry joins the same open round (the
// server keeps the first upload), and once the round closes the client
// installs exactly that round's reply — the abandoned call's late reply goes
// to a closed connection and is never read.
func TestTimedOutSyncRedialsOntoItsRound(t *testing.T) {
	transport := fed.PublicCriticTransport{}
	ref := newLocalClient(t, 99, 160)
	srv, addr := startServer(t, 2, 2, fed.FedAvg{}, mustUpload(t, transport, ref))
	proxy := startProxy(t, addr)

	slow := newLocalClient(t, 0, 161)
	rcSlow, err := DialOptions(proxy.ln.Addr().String(), slow, transport, Options{
		CallTimeout: 500 * time.Millisecond,
		Retries:     1, RetryBase: time.Millisecond, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rcSlow.Close()
	rcOther, err := DialOptions(addr, newLocalClient(t, 1, 162), transport, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rcOther.Close()

	done := make(chan error, 1)
	go func() { done <- rcSlow.syncRound() }()
	// The first call times out on the open barrier; wait until the retry has
	// sent its Sync over a second connection.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if c := proxy.conns(); len(c) == 2 && c[1] > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no redialled Sync; proxy connections %v", proxy.conns())
		}
	}
	if srv.Rounds() != 0 {
		t.Fatal("the round closed before the second client arrived")
	}
	if err := rcOther.syncRound(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("the redialled Sync should install its round's reply, got %v", err)
	}

	if st := rcSlow.Stats(); st.Timeouts != 1 || st.Retries != 1 {
		t.Fatalf("stats %+v, want 1 timeout and 1 retry", st)
	}
	if rcSlow.Round() != 1 {
		t.Fatalf("client round %d, want 1", rcSlow.Round())
	}
	global := srv.Global()
	if rep := srv.Reports()[0]; rep.Arrived != 2 || rep.Participants != 2 {
		t.Fatalf("round report %+v, want both clients in", rep)
	}
	// One accepted upload per client: the retry did not count twice.
	if got, want := srv.Comm().UploadScalars, int64(2*len(global)); got != want {
		t.Fatalf("server accepted %d upload scalars, want %d (one upload per client)", got, want)
	}
	// FedAvg hands every participant the new global.
	got := mustUpload(t, transport, slow)
	for d := range global {
		if got[d] != global[d] {
			t.Fatalf("redialled client's params diverge from its round's reply at %d", d)
		}
	}
}
