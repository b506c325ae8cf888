package fednet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"

	"repro/internal/fed"
	"repro/internal/fedcore"
)

// The federation's RPC wire format: calls, sequence numbers and error
// strings over a fixed binary encoding. The server reads, serves and answers
// one call at a time per connection (Server.serveConn); the client end,
// rpcClient, writes a request and reads its own reply.
//
// A connection opens with the client's 8-byte preface, rpcPreface: a magic
// and the format's version. The server refuses a connection that does not
// open with it, answering one text line and decoding nothing. After the
// preface every request and every response is one message, integers
// little-endian:
//
//	offset  size  field
//	0       1     method id: 1 Join, 2 Sync, 3 Fetch (0 in the error
//	              response to a method the server does not know)
//	1       8     seq, the call's sequence number, echoed in its reply
//	9       2     e, the error string's length (0 in a request)
//	11      4     n, the body's length (0 in an error response)
//	15      e     error string
//	15+e    n     body
//
// A body is its struct's fixed-width fields in declaration order — int as
// int64, bool as one byte 0 or 1, CodecConfig as its three bytes — followed
// by the struct's one variable part, which fills the rest of n: the PFC1
// frame as it is (SyncArgs, SyncReply, FetchReply), or JoinReply.Global as
// raw math.Float64bits words, so the bootstrap global arrives bit-exact.
// JoinArgs and FetchArgs have no variable part.
//
// Buffer ownership (DESIGN §9 contract 21): a frame is written from the
// caller's slice through the connection's bufio.Writer, never copied into
// an encoder's buffer. A reply's variable part is read into the storage the
// caller's reply struct already holds, so a client that hands its last
// reply's frame back in allocates nothing in steady state; nothing reads
// into it once the call has returned, timed out or not. Every upload on a
// server connection is read into that connection's one buffer.
const (
	rpcPreface = "PFRPC/1\n"
	// rpcMagic is the preface without its version and newline.
	rpcMagic = "PFRPC/"

	msgHeader = 15
	// maxErrLen is the longest error string a message carries; longer
	// ones are cut (the client classifies errors by their prefix).
	maxErrLen = math.MaxUint16
	// maxBody bounds a message body: the longest fixed part plus the
	// longest frame, which also bounds the join global's words.
	maxBody = 24 + fedcore.MaxFrameLen
	// readChunk is the most a read allocates ahead of the bytes that have
	// arrived.
	readChunk = 64 << 10
)

// Wire method ids.
const (
	methodJoin byte = 1 + iota
	methodSync
	methodFetch
)

// methodNames names the methods in errors and events.
var methodNames = [...]string{methodJoin: "Federation.Join", methodSync: "Federation.Sync", methodFetch: "Federation.Fetch"}

// errBadMessage marks a message that breaks the wire format.
var errBadMessage = errors.New("fednet: malformed rpc message")

// serverError is an error string a server answered a call with. The client
// classifies it by its msg* prefix.
type serverError string

func (e serverError) Error() string { return string(e) }

// codecConn is what both ends share: a connection's buffers, and the
// message being read.
type codecConn struct {
	br *bufio.Reader
	bw *bufio.Writer

	rs [24]byte             // read scratch: the header, a body's fixed part
	ws [msgHeader + 24]byte // write scratch: the header and a body's fixed part

	method byte // the message being read: its method id
	body   int  // and the bytes of its body not yet read
}

func newCodecConn(rw io.ReadWriter) codecConn {
	return codecConn{br: bufio.NewReader(rw), bw: bufio.NewWriter(rw)}
}

// errPreface marks a connection refused for its preface.
var errPreface = errors.New("fednet: refused connection")

// readPreface reads a server connection's preface, and refuses a connection
// that does not open with it — a gob-speaking net/rpc client, a client of
// another version of the format — without decoding anything from it.
func (c *codecConn) readPreface() error {
	p := c.rs[:len(rpcPreface)]
	if _, err := io.ReadFull(c.br, p); err != nil {
		return fmt.Errorf("%w: no preface: %v", errPreface, err)
	}
	switch {
	case string(p) == rpcPreface:
		return nil
	case string(p[:len(rpcMagic)]) == rpcMagic:
		return fmt.Errorf("%w: wire format %q, this server speaks %q", errPreface, p, rpcPreface)
	}
	return fmt.Errorf("%w: not the %q wire format (a gob net/rpc client?)", errPreface, rpcPreface)
}

// readHeader reads one message header and its error string. A connection
// that ends before the header returns io.EOF bare.
func (c *codecConn) readHeader(request bool) (method byte, seq uint64, errMsg string, err error) {
	h := c.rs[:msgHeader]
	if _, err = io.ReadFull(c.br, h); err != nil {
		return 0, 0, "", err
	}
	method, seq = h[0], binary.LittleEndian.Uint64(h[1:9])
	e, n := int(binary.LittleEndian.Uint16(h[9:11])), binary.LittleEndian.Uint32(h[11:15])
	switch {
	case n > maxBody:
		return 0, 0, "", fmt.Errorf("%w: a %d-byte body exceeds the frame bound %d", errBadMessage, n, maxBody)
	case request && e != 0:
		return 0, 0, "", fmt.Errorf("%w: a request carries an error string", errBadMessage)
	case !request && method > methodFetch:
		return 0, 0, "", fmt.Errorf("%w: response for unknown method %d", errBadMessage, method)
	}
	if e > 0 {
		b, err := c.readBytes(nil, e)
		if err != nil {
			return 0, 0, "", unexpected(err)
		}
		errMsg = string(b)
	}
	c.method, c.body = method, int(n)
	return method, seq, errMsg, nil
}

// unexpected reports a connection that ended inside a message.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readBytes reads n bytes into dst's storage when it holds them, and
// otherwise into storage that grows as the bytes arrive — by at most
// readChunk or the bytes already read, whichever is more — so a length the
// peer does not back with bytes cannot make the reader allocate it.
func (c *codecConn) readBytes(dst []byte, n int) ([]byte, error) {
	if n <= cap(dst) {
		dst = dst[:n]
		_, err := io.ReadFull(c.br, dst)
		return dst, err
	}
	dst = dst[:0]
	for len(dst) < n {
		if len(dst) == cap(dst) {
			next := make([]byte, len(dst), min(n, len(dst)+max(len(dst), readChunk)))
			copy(next, dst)
			dst = next
		}
		k, err := io.ReadFull(c.br, dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+k]
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// readWords reads n float64 bit patterns into dst, growing its storage as
// readBytes does.
func (c *codecConn) readWords(dst fed.Payload, n int) (fed.Payload, error) {
	dst = dst[:0]
	for len(dst) < n {
		if len(dst) == cap(dst) {
			next := make(fed.Payload, len(dst), min(n, len(dst)+max(len(dst), readChunk/8)))
			copy(next, dst)
			dst = next
		}
		// The whole words already buffered, or else the next one.
		k := min(cap(dst)-len(dst), n-len(dst), max(c.br.Buffered(), 8)/8)
		b, err := c.br.Peek(8 * k)
		if err != nil {
			return dst, err
		}
		for i := 0; i < len(b); i += 8 {
			dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(b[i:])))
		}
		_, _ = c.br.Discard(len(b)) // cannot fail: the bytes are buffered
	}
	return dst, nil
}

// The variable part a body ends with.
const (
	tailNone  = iota
	tailFrame // a PFC1 frame's bytes
	tailWords // float64 bit patterns
)

// bodyLayout returns the method a body type belongs to, its fixed part's
// length and its variable part, or method 0 for a type the wire does not
// decode into. Bodies are decoded into pointers (and encoded, by putBody,
// from argument values, as callers pass them).
func bodyLayout(body any) (method byte, fixed, tail int) {
	switch body.(type) {
	case *JoinArgs:
		return methodJoin, 9, tailNone
	case *JoinReply:
		return methodJoin, 20, tailWords
	case *SyncArgs:
		return methodSync, 24, tailFrame
	case *SyncReply:
		return methodSync, 17, tailFrame
	case *FetchArgs:
		return methodFetch, 16, tailNone
	case *FetchReply:
		return methodFetch, 18, tailFrame
	}
	return 0, 0, 0
}

// readBody reads the current message's body into body, or discards it when
// body is nil. The variable part goes into the storage body's slice already
// holds (see readBytes). A malformed body is skipped whole, so the message
// after it can still be read. A bool byte reads true when non-zero.
func (c *codecConn) readBody(body any) error {
	if body == nil {
		return c.skipBody()
	}
	method, fixed, tail := bodyLayout(body)
	rest := c.body - fixed
	var bad error
	switch {
	case method == 0:
		bad = fmt.Errorf("fednet: cannot decode into %T", body)
	case method != c.method:
		bad = fmt.Errorf("%w: a method %d body decoded into %T", errBadMessage, c.method, body)
	case rest < 0, tail == tailNone && rest != 0, tail == tailWords && rest%8 != 0:
		bad = fmt.Errorf("%w: a %d-byte body for %T", errBadMessage, c.body, body)
	}
	if bad != nil {
		if err := c.skipBody(); err != nil {
			return err
		}
		return bad
	}
	f := c.rs[:fixed]
	if _, err := io.ReadFull(c.br, f); err != nil {
		return unexpected(err)
	}
	c.body = 0
	le := binary.LittleEndian
	i64 := func(at int) int { return int(int64(le.Uint64(f[at:]))) }
	var err error
	switch b := body.(type) {
	case *JoinArgs:
		b.Rejoin, b.ClientID = f[0] != 0, i64(1)
	case *JoinReply:
		b.ClientID, b.Round, b.Async = i64(0), i64(8), f[16] != 0
		b.Codec = fedcore.CodecConfig{Tier: fedcore.Tier(f[17]), Delta: f[18] != 0, NoErrorFeedback: f[19] != 0}
		b.Global, err = c.readWords(b.Global, rest/8)
	case *SyncArgs:
		b.ClientID, b.Round, b.Base = i64(0), i64(8), i64(16)
		b.Frame, err = c.readBytes(b.Frame, rest)
	case *SyncReply:
		b.RefTag, b.Participant, b.Round = le.Uint64(f), f[8] != 0, i64(9)
		b.Frame, err = c.readBytes(b.Frame, rest)
	case *FetchArgs:
		b.ClientID, b.Base = i64(0), i64(8)
	case *FetchReply:
		b.RefTag, b.Participant, b.Round, b.Has = le.Uint64(f), f[8] != 0, i64(9), f[17] != 0
		b.Frame, err = c.readBytes(b.Frame, rest)
	}
	return unexpected(err)
}

// skipBody discards what is left of the current message's body.
func (c *codecConn) skipBody() error {
	n := c.body
	c.body = 0
	_, err := c.br.Discard(n)
	return unexpected(err)
}

// write sends one message: a header, then either errMsg (an error response
// carries no body) or body — its fixed part from the write scratch, its
// variable part from the caller's slice. Nothing is written when body is a
// type the wire does not carry.
func (c *codecConn) write(method byte, seq uint64, errMsg string, body any) error {
	var frame []byte
	var global fed.Payload
	h := c.ws[:msgHeader]
	if len(errMsg) > maxErrLen {
		errMsg = errMsg[:maxErrLen]
	}
	if errMsg == "" {
		var ok bool
		if h, frame, global, ok = putBody(h, body); !ok {
			return fmt.Errorf("fednet: cannot encode %T", body)
		}
	}
	n := len(h) - msgHeader + len(frame) + 8*len(global)
	if n > maxBody {
		return fmt.Errorf("fednet: a %d-byte %T exceeds the frame bound %d", n, body, maxBody)
	}
	le := binary.LittleEndian
	h[0] = method
	le.PutUint64(h[1:9], seq)
	le.PutUint16(h[9:11], uint16(len(errMsg)))
	le.PutUint32(h[11:15], uint32(n))
	_, _ = c.bw.Write(h) // a bufio.Writer's error sticks: Flush reports it
	_, _ = c.bw.WriteString(errMsg)
	_, _ = c.bw.Write(frame)
	for len(global) > 0 {
		if c.bw.Available() < 8 {
			if err := c.bw.Flush(); err != nil {
				return err
			}
		}
		b := c.bw.AvailableBuffer()
		k := min(len(global), cap(b)/8)
		for _, v := range global[:k] {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
		_, _ = c.bw.Write(b)
		global = global[k:]
	}
	return c.bw.Flush()
}

// putBody appends body's fixed part to dst and returns it with the variable
// part; ok is false for a type the wire does not carry.
func putBody(dst []byte, body any) (fixed, frame []byte, global fed.Payload, ok bool) {
	le := binary.LittleEndian
	i64 := func(v int) { dst = le.AppendUint64(dst, uint64(int64(v))) }
	flag := func(v bool) {
		if v {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	switch b := body.(type) {
	case JoinArgs:
		flag(b.Rejoin)
		i64(b.ClientID)
	case *JoinReply:
		i64(b.ClientID)
		i64(b.Round)
		flag(b.Async)
		dst = append(dst, byte(b.Codec.Tier))
		flag(b.Codec.Delta)
		flag(b.Codec.NoErrorFeedback)
		global = b.Global
	case SyncArgs:
		i64(b.ClientID)
		i64(b.Round)
		i64(b.Base)
		frame = b.Frame
	case *SyncReply:
		dst = le.AppendUint64(dst, b.RefTag)
		flag(b.Participant)
		i64(b.Round)
		frame = b.Frame
	case FetchArgs:
		i64(b.ClientID)
		i64(b.Base)
	case *FetchReply:
		dst = le.AppendUint64(dst, b.RefTag)
		flag(b.Participant)
		i64(b.Round)
		flag(b.Has)
		frame = b.Frame
	default:
		return dst, nil, nil, false
	}
	return dst, frame, global, true
}

// rpcClient is the client end of a connection: one call at a time, each
// writing its request and reading its own reply, so no reply is read once
// its call has returned.
type rpcClient struct {
	codecConn
	conn net.Conn
	seq  uint64 // the last call's
}

// dialRPC connects to a fednet server.
func dialRPC(addr string) (*rpcClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newRPCClient(conn), nil
}

// newRPCClient opens a client connection: the preface goes out with the
// first request.
func newRPCClient(conn net.Conn) *rpcClient {
	c := &rpcClient{codecConn: newCodecConn(conn), conn: conn}
	_, _ = c.bw.WriteString(rpcPreface) // flushed, and checked, with the first request
	return c
}

// Call sends one request and reads its reply into the storage reply's Frame
// or Global already holds. An error the server answered comes back as a
// serverError; any other error leaves the connection unusable, except a body
// type the wire does not carry, refused before anything is written.
func (c *rpcClient) Call(method byte, args, reply any) error {
	c.seq++
	if err := c.write(method, c.seq, "", args); err != nil {
		return err
	}
	return c.readReply(c.seq, reply)
}

// readReply reads the reply to call seq into reply.
func (c *codecConn) readReply(seq uint64, reply any) error {
	_, got, errMsg, err := c.readHeader(false)
	switch {
	case err != nil:
		return err
	case got != seq:
		return fmt.Errorf("%w: reply %d to call %d", errBadMessage, got, seq)
	case errMsg != "":
		if err := c.skipBody(); err != nil {
			return err
		}
		return serverError(errMsg)
	}
	return c.readBody(reply)
}

// Close closes the connection.
func (c *rpcClient) Close() error { return c.conn.Close() }
