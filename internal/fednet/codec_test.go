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
	"sync"
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

func (pipeEnd) Close() error { return nil }

// memCodecs returns a client and a server codec joined in memory, the
// preface already read.
func memCodecs(t *testing.T) (*clientCodec, *serverCodec) {
	t.Helper()
	var requests, responses bytes.Buffer
	cc := newClientCodec(pipeEnd{&responses, &requests})
	if err := cc.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	sc, err := newServerCodec(pipeEnd{&requests, &responses})
	if err != nil {
		t.Fatal(err)
	}
	return cc, sc
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
// message type crosses it bit for bit, replies are read into the storage the
// caller hands in, the msg* error prefixes reach the client as the same
// rpc.ServerError the gob format delivered and retryable classifies them
// alike, and a method without a wire id — refused by the client, or unknown
// to the server — leaves the connection usable.
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
		cc, sc := memCodecs(t)
		requests := []struct {
			method string
			args   any
			into   any
		}{
			{"Federation.Join", JoinArgs{Rejoin: true, ClientID: 7}, &JoinArgs{}},
			{"Federation.Join", JoinArgs{ClientID: -1}, &JoinArgs{}},
			{"Federation.Sync", SyncArgs{ClientID: 3, Round: math.MinInt64, Frame: frame, Base: math.MaxInt64}, &SyncArgs{}},
			{"Federation.Sync", SyncArgs{ClientID: 3, Round: 1}, &SyncArgs{}},
			{"Federation.Sync", SyncArgs{ClientID: 3, Round: 2, Frame: []byte{}}, &SyncArgs{}},
			{"Federation.Fetch", FetchArgs{ClientID: 2, Base: -1}, &FetchArgs{}},
		}
		for i, c := range requests {
			seq := uint64(i) + 1<<40
			if err := cc.WriteRequest(&rpc.Request{ServiceMethod: c.method, Seq: seq}, c.args); err != nil {
				t.Fatalf("%s: write: %v", c.method, err)
			}
			var req rpc.Request
			if err := sc.ReadRequestHeader(&req); err != nil || req.ServiceMethod != c.method || req.Seq != seq {
				t.Fatalf("%s: header %+v, err %v", c.method, req, err)
			}
			if err := sc.ReadRequestBody(c.into); err != nil {
				t.Fatalf("%s: body: %v", c.method, err)
			}
			if got, want := wireView(c.into), wireView(c.args); !reflect.DeepEqual(got, want) {
				t.Fatalf("request %d: got %v, want %v", i, got, want)
			}
			// Answer it, so the next upload may use the connection's buffer.
			if err := sc.WriteResponse(&rpc.Response{ServiceMethod: c.method, Seq: seq, Error: "x"}, struct{}{}); err != nil {
				t.Fatal(err)
			}
			var resp rpc.Response
			if err := cc.ReadResponseHeader(&resp); err != nil || resp.Seq != seq || resp.Error != "x" {
				t.Fatalf("error response %+v, err %v", resp, err)
			}
			if err := cc.ReadResponseBody(nil); err != nil {
				t.Fatal(err)
			}
		}

		replies := []struct {
			method string
			reply  any
			into   any
		}{
			{"Federation.Join", &JoinReply{ClientID: 5, Global: global, Round: 9, Async: true,
				Codec: fedcore.CodecConfig{Tier: fedcore.TierI16, Delta: true, NoErrorFeedback: true}}, &JoinReply{}},
			{"Federation.Join", &JoinReply{ClientID: 1}, &JoinReply{Global: fed.Payload{4}}},
			{"Federation.Sync", &SyncReply{Frame: frame, RefTag: 1<<63 | 5, Participant: true, Round: -3}, &SyncReply{}},
			{"Federation.Sync", &SyncReply{Round: 4}, &SyncReply{Frame: []byte("stale")}},
			{"Federation.Sync", &SyncReply{Frame: []byte{}, Round: 4}, &SyncReply{}},
			{"Federation.Fetch", &FetchReply{Frame: frame, RefTag: 2, Participant: true, Round: 8, Has: true}, &FetchReply{}},
			{"Federation.Fetch", &FetchReply{Round: 8}, &FetchReply{}},
		}
		for i, c := range replies {
			seq := uint64(i)
			if err := sc.WriteResponse(&rpc.Response{ServiceMethod: c.method, Seq: seq}, c.reply); err != nil {
				t.Fatalf("%s: write: %v", c.method, err)
			}
			var resp rpc.Response
			if err := cc.ReadResponseHeader(&resp); err != nil || resp.Seq != seq || resp.Error != "" {
				t.Fatalf("%s: header %+v, err %v", c.method, resp, err)
			}
			if err := cc.ReadResponseBody(c.into); err != nil {
				t.Fatalf("%s: body: %v", c.method, err)
			}
			if got, want := wireView(c.into), wireView(c.reply); !reflect.DeepEqual(got, want) {
				t.Fatalf("reply %d: got %v, want %v", i, got, want)
			}
		}
	})

	t.Run("storage", func(t *testing.T) {
		cc, sc := memCodecs(t)
		// A reply is read into the storage the caller hands in.
		reuse := make([]byte, 0, 2*len(frame))
		into := SyncReply{Frame: reuse}
		if err := sc.WriteResponse(&rpc.Response{ServiceMethod: "Federation.Sync"}, &SyncReply{Frame: frame}); err != nil {
			t.Fatal(err)
		}
		var resp rpc.Response
		if err := cc.ReadResponseHeader(&resp); err != nil {
			t.Fatal(err)
		}
		if err := cc.ReadResponseBody(&into); err != nil || !bytes.Equal(into.Frame, frame) || &into.Frame[0] != &reuse[:1][0] {
			t.Fatalf("reply frame not read into the caller's storage (err %v)", err)
		}
		// An upload read while no other request is in flight goes into the
		// connection's buffer, which comes back once it is answered.
		cc, sc = memCodecs(t)
		var first *byte
		for i := 0; i < 3; i++ {
			if err := cc.WriteRequest(&rpc.Request{ServiceMethod: "Federation.Sync", Seq: uint64(i)}, SyncArgs{Frame: frame}); err != nil {
				t.Fatal(err)
			}
			var req rpc.Request
			var args SyncArgs
			if err := sc.ReadRequestHeader(&req); err != nil {
				t.Fatal(err)
			}
			if err := sc.ReadRequestBody(&args); err != nil || !bytes.Equal(args.Frame, frame) {
				t.Fatalf("upload %d: %v", i, err)
			}
			if first == nil {
				first = &args.Frame[0]
			} else if &args.Frame[0] != first {
				t.Fatalf("upload %d: a fresh buffer on a connection with nothing else in flight", i)
			}
			if err := sc.WriteResponse(&rpc.Response{ServiceMethod: "Federation.Sync", Seq: req.Seq}, &SyncReply{}); err != nil {
				t.Fatal(err)
			}
		}
		// Two in flight at once: the second must not share the first's.
		var held [2]SyncArgs
		for i := range held {
			if err := cc.WriteRequest(&rpc.Request{ServiceMethod: "Federation.Sync", Seq: uint64(10 + i)}, SyncArgs{Frame: frame}); err != nil {
				t.Fatal(err)
			}
			var req rpc.Request
			if err := sc.ReadRequestHeader(&req); err != nil {
				t.Fatal(err)
			}
			if err := sc.ReadRequestBody(&held[i]); err != nil {
				t.Fatal(err)
			}
		}
		if &held[0].Frame[0] == &held[1].Frame[0] {
			t.Fatal("two requests in flight share one upload buffer")
		}
	})

	t.Run("errors", func(t *testing.T) {
		transport := fed.PublicCriticTransport{}
		initial := mustUpload(t, transport, newLocalClient(t, 0, 160))
		async, asyncAddr := startConfigured(t, ServerConfig{
			Clients: 2, K: 2, Seed: 1, InitialGlobal: initial, Aggregator: fed.FedAvg{},
			Async: true, StalenessBound: -1, Codec: fedcore.CodecConfig{Tier: fedcore.TierI8, Delta: true},
		})
		_, barrierAddr := startServer(t, 1, 1, fed.FedAvg{}, initial)
		aconn, bconn := dialRaw(t, asyncAddr), dialRaw(t, barrierAddr)
		aid, bid := rawJoin(t, aconn).ClientID, rawJoin(t, bconn).ClientID
		for round := 0; round < 2; round++ {
			if err := bconn.Call("Federation.Sync", SyncArgs{ClientID: bid, Round: round, Frame: testFrame(initial)}, &SyncReply{}); err != nil {
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
				return aconn.Call("Federation.Sync", SyncArgs{ClientID: aid, Round: 1, Frame: []byte("short")}, &SyncReply{})
			}, true, false},
			{msgRefMismatch, func() error {
				return aconn.Call("Federation.Sync", SyncArgs{ClientID: aid, Round: 1, Frame: delta.Encode(initial)}, &SyncReply{})
			}, true, false},
			{msgRoundPassed, func() error {
				return bconn.Call("Federation.Sync", SyncArgs{ClientID: bid, Round: 0, Frame: testFrame(initial)}, &SyncReply{})
			}, false, false},
			{"fednet: unknown client", func() error {
				return aconn.Call("Federation.Fetch", FetchArgs{ClientID: 1}, &FetchReply{})
			}, false, false},
			{msgClosed, func() error {
				async.Close()
				return aconn.Call("Federation.Sync", SyncArgs{ClientID: aid, Round: 1, Frame: testFrame(initial)}, &SyncReply{})
			}, false, false},
		}
		for _, c := range cases {
			err := c.call()
			var srvErr rpc.ServerError
			if !errors.As(err, &srvErr) || !strings.HasPrefix(string(srvErr), c.prefix) {
				t.Fatalf("err %v (%T), want an rpc.ServerError starting %q", err, err, c.prefix)
			}
			if retry, redial := retryable(err); retry != c.retry || redial != c.redial {
				t.Fatalf("%q: retryable = %v, %v, want %v, %v", c.prefix, retry, redial, c.retry, c.redial)
			}
		}
	})

	t.Run("unknown method", func(t *testing.T) {
		_, addr := startServer(t, 2, 2, fed.FedAvg{}, fed.Payload{0, 0})
		conn := dialRaw(t, addr)
		// A method with no wire id is refused before anything is written.
		if err := conn.Call("Federation.Leave", JoinArgs{}, &JoinReply{}); err == nil || !strings.Contains(err.Error(), "no such rpc method") {
			t.Fatalf("client-side unknown method: %v", err)
		}
		if id := rawJoin(t, conn).ClientID; id != 0 {
			t.Fatalf("join after a refused method got slot %d", id)
		}
		// An id the server does not know is answered with an error and its
		// body skipped.
		tcp, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer tcp.Close()
		cc := newClientCodec(tcp)
		if err := cc.write(9, 1, "", JoinArgs{ClientID: 5}); err != nil {
			t.Fatal(err)
		}
		var resp rpc.Response
		if err := cc.ReadResponseHeader(&resp); err != nil || resp.Seq != 1 || !strings.Contains(resp.Error, "can't find method") {
			t.Fatalf("unknown id: response %+v, err %v", resp, err)
		}
		if err := cc.ReadResponseBody(nil); err != nil {
			t.Fatal(err)
		}
		if err := cc.WriteRequest(&rpc.Request{ServiceMethod: "Federation.Join", Seq: 2}, JoinArgs{}); err != nil {
			t.Fatal(err)
		}
		var reply JoinReply
		if err := cc.ReadResponseHeader(&resp); err != nil || resp.Seq != 2 || resp.Error != "" {
			t.Fatalf("join after an unknown id: response %+v, err %v", resp, err)
		}
		if err := cc.ReadResponseBody(&reply); err != nil || reply.ClientID != 1 || len(reply.Global) != 2 {
			t.Fatalf("join after an unknown id: %+v, err %v", reply, err)
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

// lingeringConn is a client connection whose Close does not interrupt a
// read already waiting on it — the window in which a call that timed out
// can still have its late reply read. eof closes when a read fails.
type lingeringConn struct {
	net.Conn
	eof  chan struct{}
	once sync.Once
}

func (c *lingeringConn) Close() error { return nil }

func (c *lingeringConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err != nil {
		c.once.Do(func() { close(c.eof) })
	}
	return n, err
}

// TestTimedOutReplyKeepsItsStorage pins the timeout half of DESIGN §9
// contract 21: a call that times out keeps its reply storage, and the retry
// on a fresh connection reads into storage of its own, so a late reply read
// into the abandoned call's storage cannot reach what the client installed.
func TestTimedOutReplyKeepsItsStorage(t *testing.T) {
	transport := fed.PublicCriticTransport{}
	local := newLocalClient(t, 0, 150)
	_, addr := startAsyncServer(t, 1, 1, -1, 1, fed.FedAvg{}, mustUpload(t, transport, local))
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
	abandoned := rc.down[:cap(rc.down)]
	if len(abandoned) == 0 {
		t.Fatal("no reply storage after a round")
	}

	// The next call, the round's Fetch, goes to a stand-in server that
	// answers only once released — after the retry has landed.
	clientEnd, serverEnd := net.Pipe()
	conn := &lingeringConn{Conn: clientEnd, eof: make(chan struct{})}
	rc.rpc.Close()
	rc.rpc = rpc.NewClientWithCodec(newClientCodec(conn))
	release, served := make(chan struct{}), make(chan error, 1)
	go func() {
		served <- func() error {
			defer serverEnd.Close()
			sc, err := newServerCodec(serverEnd)
			if err != nil {
				return err
			}
			var req rpc.Request
			var args FetchArgs
			if err := sc.ReadRequestHeader(&req); err != nil {
				return err
			}
			if err := sc.ReadRequestBody(&args); err != nil {
				return err
			}
			<-release
			late := &FetchReply{Frame: bytes.Repeat([]byte{0xEE}, len(abandoned)), Round: 99, Has: true}
			return sc.WriteResponse(&rpc.Response{ServiceMethod: req.ServiceMethod, Seq: req.Seq}, late)
		}()
	}()
	if err := rc.RunRounds(1, 1); err != nil {
		t.Fatal(err)
	}
	if st := rc.Stats(); st.Timeouts != 1 || st.Retries != 1 {
		t.Fatalf("stats %+v, want the Fetch to time out once and land on its retry", st)
	}
	if cap(rc.down) > 0 && &rc.down[:1][0] == &abandoned[0] {
		t.Fatal("the retry read its reply into the timed-out call's storage")
	}
	kept := append([]byte(nil), rc.down...)

	close(release)
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	<-conn.eof // the late reply was read: the stream ended after it
	if abandoned[0] != 0xEE {
		t.Fatal("the late reply never reached the abandoned storage: the window was not exercised")
	}
	if !bytes.Equal(rc.down, kept) {
		t.Fatal("the late reply changed the storage the retry's reply was read into")
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

// FuzzRPCCodec drives the server's request reader and the client's response
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
		server, err := newServerCodec(pipeEnd{bytes.NewReader(append([]byte(rpcPreface), data...)), io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		client := &clientCodec{newCodecConn(pipeEnd{bytes.NewReader(data), io.Discard})}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc

		for {
			var req rpc.Request
			if server.ReadRequestHeader(&req) != nil {
				break
			}
			var body any
			switch methodID(req.ServiceMethod) {
			case methodJoin:
				body = &JoinArgs{}
			case methodSync:
				body = &SyncArgs{}
			case methodFetch:
				body = &FetchArgs{}
			}
			_ = server.ReadRequestBody(body) // a malformed body is answered, as net/rpc does
			_ = server.WriteResponse(&rpc.Response{ServiceMethod: req.ServiceMethod, Seq: req.Seq, Error: "answered"}, struct{}{})
		}
		for {
			var resp rpc.Response
			if client.ReadResponseHeader(&resp) != nil {
				break
			}
			// A reply of the header's type, of another type, or none.
			var body any
			switch {
			case resp.Error != "":
			case resp.Seq%4 == 0:
				body = &JoinReply{Global: make(fed.Payload, 0, 2)}
			case resp.Seq%4 == 1:
				body = &SyncReply{Frame: make([]byte, 0, 16)}
			case resp.Seq%4 == 2:
				body = &FetchReply{}
			}
			if client.ReadResponseBody(body) != nil && body != nil {
				break // net/rpc's client stops reading on a bad reply body
			}
		}

		runtime.ReadMemStats(&ms)
		if got, budget := ms.TotalAlloc-before, uint64(1<<20+32*len(data)); got > budget {
			t.Fatalf("decoding %d bytes allocated %d bytes, budget %d", len(data), got, budget)
		}
	})
}
