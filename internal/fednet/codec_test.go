package fednet

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"net/rpc"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fed"
	"repro/internal/fedcore"
)

// pipeEnd is one end of an in-memory connection: it reads what the other end
// wrote.
type pipeEnd struct {
	io.Reader
	io.Writer
}

// memConns returns a client and a server end joined in memory, the preface
// already read.
func memConns(t *testing.T) (client, server *codecConn) {
	t.Helper()
	var requests, responses bytes.Buffer
	cc, sc := newCodecConn(pipeEnd{&responses, &requests}), newCodecConn(pipeEnd{&requests, &responses})
	_, _ = cc.bw.WriteString(rpcPreface)
	if err := cc.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := sc.readPreface(); err != nil {
		t.Fatal(err)
	}
	return &cc, &sc
}

// wireView is a message as the wire defines equality: a float by its bit
// pattern, a nil and an empty frame alike.
func wireView(m any) any {
	v := reflect.Indirect(reflect.ValueOf(m))
	out := map[string]any{"type": v.Type().Name()}
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch x := f.Interface().(type) {
		case []byte:
			out[v.Type().Field(i).Name] = string(x)
		case fed.Payload:
			bits := make([]uint64, len(x))
			for j, w := range x {
				bits[j] = math.Float64bits(w)
			}
			out[v.Type().Field(i).Name] = bits
		default:
			out[v.Type().Field(i).Name] = x
		}
	}
	return out
}

// TestRPCCodecRoundTrip pins the wire format (DESIGN §9 contract 21): every
// message type crosses it bit for bit, a reply must echo its call's seq and
// is read into the storage the caller hands in, every upload on a server connection into its one buffer,
// the msg* error prefixes reach the client as serverErrors and retryable
// classifies them, and a method the server does not know, or a body the
// client cannot encode, leaves the connection usable.
func TestRPCCodecRoundTrip(t *testing.T) {
	frame := fedcore.NewEncoder(fedcore.CodecConfig{Tier: fedcore.TierI8}).Encode(fed.Payload{1, -2, 3e-3})
	global := fed.Payload{
		math.Copysign(0, -1),
		math.Float64frombits(0x7ff8_0000_dead_beef), // quiet NaN, payload set
		math.Float64frombits(0x7ff0_0000_0000_0001), // signalling NaN
		math.Float64frombits(1),                     // the smallest subnormal
		-math.SmallestNonzeroFloat64 * 3,
		math.Inf(-1), math.MaxFloat64, 1,
	}

	t.Run("messages", func(t *testing.T) {
		cc, sc := memConns(t)
		requests := []struct {
			method byte
			args   any
			into   any
		}{
			{methodJoin, JoinArgs{Rejoin: true, ClientID: 7}, &JoinArgs{}},
			{methodJoin, JoinArgs{ClientID: -1}, &JoinArgs{}},
			{methodSync, SyncArgs{ClientID: 3, Round: math.MinInt64, Frame: frame, Base: math.MaxInt64}, &SyncArgs{}},
			{methodSync, SyncArgs{ClientID: 3, Round: 1}, &SyncArgs{}},
			{methodSync, SyncArgs{ClientID: 3, Round: 2, Frame: []byte{}}, &SyncArgs{}},
			{methodFetch, FetchArgs{ClientID: 2, Base: -1}, &FetchArgs{}},
		}
		for i, c := range requests {
			seq := uint64(i) + 1<<40
			if err := cc.write(c.method, seq, "", c.args); err != nil {
				t.Fatalf("%T: write: %v", c.args, err)
			}
			method, got, errMsg, err := sc.readHeader(true)
			if err != nil || method != c.method || got != seq || errMsg != "" {
				t.Fatalf("%T: header %d %d %q, err %v", c.args, method, got, errMsg, err)
			}
			if err := sc.readBody(c.into); err != nil {
				t.Fatalf("%T: body: %v", c.args, err)
			}
			if got, want := wireView(c.into), wireView(c.args); !reflect.DeepEqual(got, want) {
				t.Fatalf("request %d: got %v, want %v", i, got, want)
			}
			// An error answer reaches the client as the server's string.
			if err := sc.write(c.method, seq, "x", nil); err != nil {
				t.Fatal(err)
			}
			if err := cc.readReply(seq, nil); err != serverError("x") {
				t.Fatalf("error response: %v (%T)", err, err)
			}
		}

		replies := []struct {
			method byte
			reply  any
			into   any
		}{
			{methodJoin, &JoinReply{ClientID: 5, Global: global, Round: 9, Async: true,
				Codec: fedcore.CodecConfig{Tier: fedcore.TierI16, Delta: true, NoErrorFeedback: true}}, &JoinReply{}},
			{methodJoin, &JoinReply{ClientID: 1}, &JoinReply{Global: fed.Payload{4}}},
			{methodSync, &SyncReply{Frame: frame, RefTag: 1<<63 | 5, Participant: true, Round: -3}, &SyncReply{}},
			{methodSync, &SyncReply{Round: 4}, &SyncReply{Frame: []byte("stale")}},
			{methodSync, &SyncReply{Frame: []byte{}, Round: 4}, &SyncReply{}},
			{methodFetch, &FetchReply{Frame: frame, RefTag: 2, Participant: true, Round: 8, Has: true}, &FetchReply{}},
			{methodFetch, &FetchReply{Round: 8}, &FetchReply{}},
		}
		for i, c := range replies {
			seq := uint64(i)
			if err := sc.write(c.method, seq, "", c.reply); err != nil {
				t.Fatalf("%T: write: %v", c.reply, err)
			}
			if err := cc.readReply(seq, c.into); err != nil {
				t.Fatalf("%T: %v", c.reply, err)
			}
			if got, want := wireView(c.into), wireView(c.reply); !reflect.DeepEqual(got, want) {
				t.Fatalf("reply %d: got %v, want %v", i, got, want)
			}
		}
		// The client checks that a reply echoes its call's seq.
		if err := sc.write(methodFetch, 7, "", &FetchReply{}); err != nil {
			t.Fatal(err)
		}
		if err := cc.readReply(8, &FetchReply{}); !errors.Is(err, errBadMessage) {
			t.Fatalf("the reply to call 7 read as call 8's: err %v", err)
		}
	})

	t.Run("storage", func(t *testing.T) {
		cc, sc := memConns(t)
		// A reply is read into the storage the caller hands in.
		reuse := make([]byte, 0, 2*len(frame))
		into := SyncReply{Frame: reuse}
		if err := sc.write(methodSync, 1, "", &SyncReply{Frame: frame}); err != nil {
			t.Fatal(err)
		}
		if err := cc.readReply(1, &into); err != nil || !bytes.Equal(into.Frame, frame) || &into.Frame[0] != &reuse[:1][0] {
			t.Fatalf("reply frame not read into the caller's storage (err %v)", err)
		}
		// Every upload on one connection is read into its one buffer, as the
		// server loop reads them.
		var m callSlots
		var first *byte
		for i := 0; i < 3; i++ {
			if err := cc.write(methodSync, uint64(i), "", SyncArgs{Frame: frame}); err != nil {
				t.Fatal(err)
			}
			method, _, _, err := sc.readHeader(true)
			if err != nil {
				t.Fatal(err)
			}
			if err := sc.readBody(m.args(method)); err != nil || !bytes.Equal(m.syncArgs.Frame, frame) {
				t.Fatalf("upload %d: %v", i, err)
			}
			if first == nil {
				first = &m.syncArgs.Frame[0]
			} else if &m.syncArgs.Frame[0] != first {
				t.Fatalf("upload %d: a fresh buffer on a connection that served the last one", i)
			}
		}
	})

	t.Run("errors", func(t *testing.T) {
		transport := fed.PublicCriticTransport{}
		initial := mustUpload(t, transport, newLocalClient(t, 0, 160))
		_, asyncAddr := startConfigured(t, ServerConfig{
			Clients: 2, K: 2, Seed: 1, InitialGlobal: initial, Aggregator: fed.FedAvg{},
			Async: true, StalenessBound: -1, Codec: fedcore.CodecConfig{Tier: fedcore.TierI8, Delta: true},
		})
		_, barrierAddr := startServer(t, 1, 1, fed.FedAvg{}, initial)
		aconn, bconn := dialRaw(t, asyncAddr), dialRaw(t, barrierAddr)
		aid, bid := rawJoin(t, aconn).ClientID, rawJoin(t, bconn).ClientID
		for round := 0; round < 2; round++ {
			if err := bconn.Call(methodSync, SyncArgs{ClientID: bid, Round: round, Frame: testFrame(initial)}, &SyncReply{}); err != nil {
				t.Fatal(err)
			}
		}
		delta := fedcore.NewEncoder(fedcore.CodecConfig{Tier: fedcore.TierI8, Delta: true})
		delta.SetRef(99, initial)
		cases := []struct {
			prefix        string
			call          func() error
			retry, redial bool
		}{
			{msgBadUpload, func() error {
				return aconn.Call(methodSync, SyncArgs{ClientID: aid, Round: 1, Frame: []byte("short")}, &SyncReply{})
			}, true, false},
			{msgRefMismatch, func() error {
				return aconn.Call(methodSync, SyncArgs{ClientID: aid, Round: 1, Frame: delta.Encode(initial)}, &SyncReply{})
			}, true, false},
			{msgRoundPassed, func() error {
				return bconn.Call(methodSync, SyncArgs{ClientID: bid, Round: 0, Frame: testFrame(initial)}, &SyncReply{})
			}, false, false},
			{"fednet: unknown client", func() error {
				return aconn.Call(methodFetch, FetchArgs{ClientID: 1}, &FetchReply{})
			}, false, false},
			{msgClosed, func() error {
				// A call held when the server closes is answered before its
				// connection ends: a Sync on a barrier that will not fill.
				closing, closingAddr := startServer(t, 2, 2, fed.FedAvg{}, initial)
				conn := dialRaw(t, closingAddr)
				id := rawJoin(t, conn).ClientID
				go func() {
					awaitArrived(closing, 1)
					closing.Close()
				}()
				return conn.Call(methodSync, SyncArgs{ClientID: id, Round: 0, Frame: testFrame(initial)}, &SyncReply{})
			}, false, false},
		}
		for _, c := range cases {
			err := c.call()
			var srvErr serverError
			if !errors.As(err, &srvErr) || !strings.HasPrefix(string(srvErr), c.prefix) {
				t.Fatalf("err %v (%T), want a serverError starting %q", err, err, c.prefix)
			}
			if retry, redial := retryable(err); retry != c.retry || redial != c.redial {
				t.Fatalf("%q: retryable = %v, %v, want %v, %v", c.prefix, retry, redial, c.retry, c.redial)
			}
		}
	})

	t.Run("unknown method", func(t *testing.T) {
		_, addr := startServer(t, 2, 2, fed.FedAvg{}, fed.Payload{0, 0})
		conn := dialRaw(t, addr)
		// A body the wire does not carry is refused before anything is
		// written.
		if err := conn.Call(methodJoin, struct{}{}, &JoinReply{}); err == nil || !strings.Contains(err.Error(), "cannot encode") {
			t.Fatalf("unencodable arguments: %v", err)
		}
		if id := rawJoin(t, conn).ClientID; id != 0 {
			t.Fatalf("join after refused arguments got slot %d", id)
		}
		// An id the server does not know is answered with an error and its
		// body skipped.
		var srvErr serverError
		if err := conn.Call(9, JoinArgs{ClientID: 5}, &JoinReply{}); !errors.As(err, &srvErr) || !strings.Contains(err.Error(), "no such rpc method 9") {
			t.Fatalf("unknown id: %v", err)
		}
		if reply := rawJoin(t, conn); reply.ClientID != 1 || len(reply.Global) != 2 {
			t.Fatalf("join after an unknown id: %+v", reply)
		}
	})
}

// TestRPCRefusesOtherFormats: a connection that does not open with the
// preface — a gob net/rpc client, as every client was before this wire
// format; another version of the format — is answered with one line naming
// the refusal and closed, and nothing it sent is decoded.
func TestRPCRefusesOtherFormats(t *testing.T) {
	srv, addr := startServer(t, 2, 2, fed.FedAvg{}, fed.Payload{0, 0})

	gobClient, err := rpc.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer gobClient.Close()
	if err := gobClient.Call("Federation.Join", JoinArgs{}, &JoinReply{}); err == nil {
		t.Fatal("a gob client joined")
	}

	for _, c := range []struct{ opening, want string }{
		{"\x00\x00\x00\x00\x00\x00\x00\x00", "gob net/rpc client"},
		{"PFRPC/2\n", `wire format "PFRPC/2\n"`},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte(c.opening)); err != nil {
			t.Fatal(err)
		}
		answer, err := io.ReadAll(conn)
		conn.Close()
		if err != nil || !strings.HasPrefix(string(answer), errPreface.Error()) || !strings.Contains(string(answer), c.want) {
			t.Fatalf("opening %q answered %q (err %v), want a refusal naming %q", c.opening, answer, err, c.want)
		}
	}

	srv.mu.Lock()
	joined := srv.nextID
	srv.mu.Unlock()
	if joined != 0 {
		t.Fatalf("%d slots handed out to refused connections", joined)
	}
	if id := rawJoin(t, dialRaw(t, addr)).ClientID; id != 0 {
		t.Fatalf("first join after the refusals got slot %d", id)
	}
}

// TestTimedOutReplyKeepsItsStorage pins the timeout half of DESIGN §9
// contract 21: a call that times out closes its connection and returns, and
// nothing reads a reply into its storage after that — a late reply has no
// reader — so the retry reads into the same storage and installs the round
// the server committed, not the late reply's.
func TestTimedOutReplyKeepsItsStorage(t *testing.T) {
	transport := fed.PublicCriticTransport{}
	local := newLocalClient(t, 0, 150)
	initial := mustUpload(t, transport, local)
	srv, addr := startAsyncServer(t, 2, 1, -1, 1, fed.FedAvg{}, initial)
	rc, err := DialOptions(addr, local, transport, Options{
		CallTimeout: 250 * time.Millisecond, Retries: 1, RetryBase: time.Millisecond, RetryMax: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if err := rc.RunRounds(1, 1); err != nil {
		t.Fatal(err)
	}
	storage := rc.down[:cap(rc.down)]
	if len(storage) == 0 {
		t.Fatal("no reply storage after a round")
	}
	// A second client commits round 2, so the client's next Fetch has a
	// global to install.
	other := dialRaw(t, addr)
	id := rawJoin(t, other).ClientID
	if err := other.Call(methodSync, SyncArgs{ClientID: id, Round: 1, Base: 1, Frame: testFrame(initial)}, &SyncReply{}); err != nil || srv.Rounds() != 2 {
		t.Fatalf("second client's commit: rounds %d, err %v", srv.Rounds(), err)
	}

	// The Fetch goes to a stand-in server that answers only once released —
	// after the retry has landed.
	clientEnd, serverEnd := net.Pipe()
	rc.rpc.Close()
	rc.rpc = newRPCClient(clientEnd)
	release, served := make(chan struct{}), make(chan error, 1)
	go func() {
		served <- func() error {
			sc := newCodecConn(serverEnd)
			if err := sc.readPreface(); err != nil {
				return err
			}
			_, seq, _, err := sc.readHeader(true)
			if err != nil {
				return err
			}
			if err := sc.readBody(&FetchArgs{}); err != nil {
				return err
			}
			<-release
			late := &FetchReply{Frame: bytes.Repeat([]byte{0xEE}, len(storage)), Round: 99, Has: true}
			return sc.write(methodFetch, seq, "", late)
		}()
	}()
	installed, err := rc.Fetch()
	if err != nil || !installed {
		t.Fatalf("fetch: installed %v, err %v", installed, err)
	}
	if st := rc.Stats(); st.Timeouts != 1 || st.Retries != 1 {
		t.Fatalf("stats %+v, want the Fetch to time out once and land on its retry", st)
	}
	if &rc.down[:1][0] != &storage[0] {
		t.Fatal("the retry did not reuse the timed-out call's storage")
	}
	kept := bytes.Clone(storage)

	close(release)
	select {
	case err := <-served:
		if !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("late reply: err %v, want the timed-out call's connection closed to it", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the late reply is still being written: the timed-out call left its connection open")
	}
	if !bytes.Equal(storage, kept) {
		t.Fatal("the late reply changed the storage the retry's reply was read into")
	}
	if rc.Round() != 2 {
		t.Fatalf("round %d after the retry, want the server's 2", rc.Round())
	}
}

// rpcMessage encodes one message as the codec writes it.
func rpcMessage(method byte, seq uint64, errMsg string, body any) []byte {
	var b bytes.Buffer
	c := newCodecConn(pipeEnd{nil, &b})
	if err := c.write(method, seq, errMsg, body); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// FuzzRPCCodec drives the server loop's request reader and rpcClient's reply
// reader over arbitrary bytes — truncated, oversized, reordered and
// unknown-method messages among them. Neither may panic, and neither may
// allocate in proportion to a length the input declares but does not back
// with bytes: the budget is 1 MiB plus 32 bytes per input byte, where a
// header declaring a frame-bound body of ≈ 512 MiB would otherwise cost that.
func FuzzRPCCodec(f *testing.F) {
	frame := fedcore.NewEncoder(fedcore.CodecConfig{Tier: fedcore.TierI8}).Encode(fed.Payload{1, 2, 3})
	join := rpcMessage(methodJoin, 1, "", JoinArgs{Rejoin: true, ClientID: 2})
	sync := rpcMessage(methodSync, 2, "", SyncArgs{ClientID: 2, Round: 1, Frame: frame})
	fetch := rpcMessage(methodFetch, 3, "", FetchArgs{ClientID: 2, Base: 1})
	joinReply := rpcMessage(methodJoin, 1, "", &JoinReply{ClientID: 2, Global: fed.Payload{math.NaN(), -0.0, 5e-324}})
	syncReply := rpcMessage(methodSync, 2, "", &SyncReply{Frame: frame, RefTag: 7, Participant: true})
	fetchReply := rpcMessage(methodFetch, 3, "", &FetchReply{Frame: frame, Has: true})
	errReply := rpcMessage(methodSync, 4, msgBadUpload+": client 2", struct{}{})
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	hostile := func(method byte, n uint32) []byte {
		h := rpcMessage(method, 5, "", FetchArgs{})[:msgHeader]
		h[11], h[12], h[13], h[14] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
		return append(h, make([]byte, 28)...) // any body's fixed part, and 4 bytes more
	}
	reordered := append([]byte(nil), fetch...)
	reordered[0] = methodSync
	unknown := append([]byte(nil), join...)
	unknown[0] = 9
	longErr := append([]byte(nil), errReply[:msgHeader]...)
	longErr[9], longErr[10] = 0xff, 0xff
	for _, seed := range [][]byte{
		join, sync, fetch, joinReply, syncReply, fetchReply, errReply,
		cat(join, sync, fetch), cat(joinReply, syncReply, errReply, fetchReply),
		sync[:len(sync)/2], joinReply[:len(joinReply)-3],
		hostile(methodSync, maxBody), hostile(methodJoin, maxBody+1), hostile(methodFetch, 1<<31),
		cat(reordered, sync), cat(unknown, join), longErr,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		server := newCodecConn(pipeEnd{bytes.NewReader(append([]byte(rpcPreface), data...)), io.Discard})
		if err := server.readPreface(); err != nil {
			t.Fatal(err)
		}
		client := newCodecConn(pipeEnd{bytes.NewReader(data), io.Discard})
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc

		// The server loop's reader: each call's arguments into the
		// connection's slots, a malformed body answered and read past.
		var m callSlots
		for {
			method, seq, _, err := server.readHeader(true)
			if err != nil {
				break
			}
			_ = server.readBody(m.args(method))
			_ = server.write(method, seq, "answered", nil)
		}
		// rpcClient's reader: the reply to each call in turn, read into a
		// reply of the header's type, of another type, or none.
		for seq := uint64(1); ; seq++ {
			var body any
			switch seq % 4 {
			case 0:
				body = &JoinReply{Global: make(fed.Payload, 0, 2)}
			case 1:
				body = &SyncReply{Frame: make([]byte, 0, 16)}
			case 2:
				body = &FetchReply{}
			}
			if err := client.readReply(seq, body); errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				break // every other error read at least a header
			}
		}

		runtime.ReadMemStats(&ms)
		if got, budget := ms.TotalAlloc-before, uint64(1<<20+32*len(data)); got > budget {
			t.Fatalf("decoding %d bytes allocated %d bytes, budget %d", len(data), got, budget)
		}
	})
}
