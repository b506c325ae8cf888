package fednet

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/fed"
	"repro/internal/fedcore"
	"repro/internal/obs"
)

// ErrRPCTimeout marks a call that exceeded Options.CallTimeout. The
// connection is torn down and redialed before the next attempt.
var ErrRPCTimeout = errors.New("fednet: rpc deadline exceeded")

// Options tunes a RemoteClient's fault tolerance. The zero value is the
// strict protocol: no deadlines and no retries, every error fatal.
type Options struct {
	// CallTimeout bounds each RPC round trip, 0 means none. Sync blocks on
	// the server's round barrier, so set this above the server's
	// RoundTimeout plus the slowest client's training segment.
	CallTimeout time.Duration
	// Retries is how many times a failed step is re-attempted (so a step
	// makes at most Retries+1 attempts).
	Retries int
	// RetryBase / RetryMax bound the exponential backoff between attempts
	// (defaults 50ms / 2s). Each delay is scaled by a jitter factor in
	// [0.5, 1) drawn from the Seed-ed RNG, so a retry schedule is
	// deterministic for a given seed.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Seed drives the backoff jitter.
	Seed int64
	// Rejoin reclaims slot RejoinID instead of registering a new client —
	// the restart path: the rejoined client re-downloads the current
	// global payload and resumes at the server's current round.
	Rejoin   bool
	RejoinID int
}

// ClientStats counts the fault-tolerance events a client absorbed.
type ClientStats struct {
	// Retries is the number of re-attempted steps (any cause).
	Retries int
	// Timeouts is how many RPCs exceeded CallTimeout.
	Timeouts int
	// Resyncs is how many rounds were missed and recovered by a rejoin.
	Resyncs int
}

// RemoteClient trains a local fed.Client and synchronizes it with a fednet
// server over TCP. Only transport payloads cross the wire; workload data
// and private networks never leave the process.
type RemoteClient struct {
	Local     *fed.Client
	Transport fed.Transport

	addr  string
	opts  Options
	id    int
	round int // sync mode: next server round; async mode: local submission seq
	async bool
	base  int // the server round whose global we last installed
	rpc   *rpcClient
	rng   *rand.Rand
	stats ClientStats

	// wire is the client end of the wire session (codec from the JoinReply).
	wire *fedcore.WireClient
	// down is the storage the next Sync or Fetch reply's frame is read
	// into: the last reply's, which install has decoded out of by then.
	down []byte
}

// DialOptions connects to the server, registers, and installs the initial
// global model into the local client. The zero Options is the strict
// protocol: no deadlines, no retries.
func DialOptions(addr string, local *fed.Client, transport fed.Transport, opts Options) (*RemoteClient, error) {
	if opts.RetryBase <= 0 {
		opts.RetryBase = 50 * time.Millisecond
	}
	if opts.RetryMax <= 0 {
		opts.RetryMax = 2 * time.Second
	}
	c := &RemoteClient{
		Local:     local,
		Transport: transport,
		addr:      addr,
		opts:      opts,
		rng:       rand.New(rand.NewSource(opts.Seed)),
	}
	conn, err := dialRPC(addr)
	if err != nil {
		return nil, fmt.Errorf("fednet: dial %s: %w", addr, err)
	}
	c.rpc = conn
	var reply JoinReply
	args := JoinArgs{Rejoin: opts.Rejoin, ClientID: opts.RejoinID}
	if err := c.call(methodJoin, args, &reply); err != nil {
		conn.Close()
		return nil, fmt.Errorf("fednet: join: %w", err)
	}
	c.wire = fedcore.NewWireClient(reply.Codec)
	c.id = reply.ClientID
	// The bootstrap global goes through the caller's transport, which may
	// inject faults: retry like any other install.
	if err := c.retry("join", func() error { return c.Transport.Download(local, reply.Global) }); err != nil {
		c.rpc.Close()
		return nil, fmt.Errorf("fednet: install initial global: %w", err)
	}
	// c.base tracks the round whose global we installed (the staleness
	// anchor; a barrier server ignores it). Under the async protocol c.round
	// is the local submission sequence, monotone and never adopted from the
	// server.
	c.async, c.base = reply.Async, reply.Round
	if !c.async {
		c.round = reply.Round
	}
	return c, nil
}

// ID returns the server-assigned client id.
func (c *RemoteClient) ID() int { return c.id }

// Round returns the next server round this client will sync. Under the async
// protocol that is the round whose global it last installed (its staleness
// base), not its local submission seq.
func (c *RemoteClient) Round() int {
	if c.async {
		return c.base
	}
	return c.round
}

// Stats returns the client's fault-tolerance counters.
func (c *RemoteClient) Stats() ClientStats { return c.stats }

// call issues one RPC, bounded by CallTimeout when set: a deadline on the
// connection, which a timed-out call closes, so the caller is expected to
// reconnect before retrying. Nothing reads into the reply once call has
// returned, so the reply's storage is the caller's again either way.
func (c *RemoteClient) call(method byte, args, reply any) error {
	if c.opts.CallTimeout <= 0 {
		return c.rpc.Call(method, args, reply)
	}
	_ = c.rpc.conn.SetDeadline(time.Now().Add(c.opts.CallTimeout)) // a closed connection fails the call
	err := c.rpc.Call(method, args, reply)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		return err
	}
	c.stats.Timeouts++
	mNetTimeouts.Inc()
	if obs.Active() {
		obs.Emit(obs.E("rpc_timeout").At(c.id, c.round, -1).
			S("method", methodNames[method]).
			F("timeout_seconds", c.opts.CallTimeout.Seconds()))
	}
	c.rpc.Close()
	return fmt.Errorf("%w: %s after %v", ErrRPCTimeout, methodNames[method], c.opts.CallTimeout)
}

// reconnect tears down the connection and dials a fresh one.
func (c *RemoteClient) reconnect() error {
	c.rpc.Close()
	conn, err := dialRPC(c.addr)
	if err != nil {
		return fmt.Errorf("fednet: redial %s: %w", c.addr, err)
	}
	c.rpc = conn
	return nil
}

// retryable classifies an error: injected faults are retried in place,
// connection-level failures and timeouts are retried over a fresh
// connection, a corrupt-length upload is retried with a rebuilt payload,
// and everything else — a misconfigured transport, a server protocol
// error — is fatal.
func retryable(err error) (retry, redial bool) {
	switch {
	case err == nil:
		return false, false
	case errors.Is(err, fed.ErrInjectedFault):
		return true, false
	case errors.Is(err, ErrRPCTimeout), errors.Is(err, net.ErrClosed),
		errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return true, true
	}
	var srvErr serverError
	if errors.As(err, &srvErr) {
		return serverSaid(err, msgBadUpload) || serverSaid(err, msgRefMismatch), false
	}
	var netErr net.Error
	if errors.As(err, &netErr) {
		return true, true
	}
	return false, false
}

// serverSaid reports whether err carries one of the server's message
// prefixes (the wire carries server-side errors as strings).
func serverSaid(err error, msg string) bool {
	return err != nil && strings.Contains(err.Error(), msg)
}

// backoffDelay is the sleep before retry attempt n (0-based):
// min(base<<n, limit) — a shift that overflows counts as past the limit —
// scaled by a jitter factor in [0.5, 1) drawn from rng, so a seed fixes the
// whole schedule.
func backoffDelay(base, limit time.Duration, n int, rng *rand.Rand) time.Duration {
	d := base << n
	if d > limit || d <= 0 {
		d = limit
	}
	jitter := 0.5 + 0.5*rng.Float64()
	return time.Duration(float64(d) * jitter)
}

// backoff sleeps for the jittered delay before retry attempt n (0-based).
func (c *RemoteClient) backoff(n int) {
	time.Sleep(backoffDelay(c.opts.RetryBase, c.opts.RetryMax, n, c.rng))
}

// RunRounds performs the given number of (train-segment, sync) rounds:
// commEvery local episodes, then one Sync exchanging only the transport
// payload — blocking on the barrier in sync mode, returning immediately in
// async mode. A sync-mode round the server closed without us counts as
// done: the client adopts the current global model and moves on, matching
// the partial-participation regime. In async mode each segment starts with
// a Fetch, installing whatever the fleet committed while we trained.
func (c *RemoteClient) RunRounds(rounds, commEvery int) error {
	for r := 0; r < rounds; r++ {
		if err := c.fetchRound(); err != nil {
			return err
		}
		c.Local.TrainEpisodes(commEvery)
		if err := c.syncRound(); err != nil {
			return err
		}
	}
	return nil
}

// fetchRound opens a round — the step before the training segment, as
// syncRound is the step after it; RunSwarm calls the two itself, with the
// segment on a worker between them. Only the async protocol has an opening
// step: the Fetch.
func (c *RemoteClient) fetchRound() error {
	if !c.async {
		return nil
	}
	if _, err := c.Fetch(); err != nil {
		return fmt.Errorf("fednet: fetch before round %d: %w", c.round, err)
	}
	return nil
}

// retry runs one protocol step until it succeeds, fails fatally, or has been
// re-attempted Options.Retries times — the one retry loop every step (join
// install, sync, fetch, resync) shares. Between attempts it backs off and,
// for connection-level failures, redials; a failed redial is left to the
// next attempt, since the server may still be down.
func (c *RemoteClient) retry(step string, once func() error) error {
	for attempt := 0; ; attempt++ {
		err := once()
		retry, redial := retryable(err)
		if !retry {
			return err
		}
		if attempt >= c.opts.Retries {
			return fmt.Errorf("%s: giving up after %d attempts: %w", step, attempt+1, err)
		}
		c.stats.Retries++
		c.noteRetry(step, attempt, err)
		c.backoff(attempt)
		if redial {
			_ = c.reconnect()
		}
	}
}

// syncRound closes a round — the step after the training segment: it uploads,
// exchanges, and installs the returned payload. When the server disowns our
// delta reference (a lost reply) the wire is told, so the retry goes absolute;
// a round the server closed without us is recovered via resync.
func (c *RemoteClient) syncRound() error {
	err := c.retry("sync", func() error {
		err := c.syncOnce()
		if serverSaid(err, msgRefMismatch) {
			c.wire.Desynced()
		}
		return err
	})
	if serverSaid(err, msgRoundPassed) {
		err = c.resync()
	}
	if err != nil {
		return fmt.Errorf("fednet: sync round %d: %w", c.round, err)
	}
	return nil
}

// syncOnce is a single upload→exchange→download attempt. In sync mode the
// exchange blocks on the server's round barrier; in async mode it returns
// immediately with whatever payload the server has for us. Either way
// c.round only advances on full success, so a retry resends the same round
// (sync: the barrier check; async: the dedup seq — the server answers a
// retransmit idempotently).
func (c *RemoteClient) syncOnce() error {
	upload, err := c.Transport.Upload(c.Local)
	if err != nil {
		return err
	}
	reply := SyncReply{Frame: c.down}
	args := SyncArgs{ClientID: c.id, Round: c.round, Frame: c.wire.Encode(upload), Base: c.base}
	if err := c.call(methodSync, args, &reply); err != nil {
		return err
	}
	c.down = reply.Frame
	if err := c.install(reply.Frame, reply.RefTag); err != nil {
		return err
	}
	c.round++
	c.base = reply.Round
	return nil
}

// install moves one downlink frame across the client end of the wire into
// the local model. Whether the payload becomes the delta reference is the
// wire's rule (only once the install succeeded; a failed one clears it).
func (c *RemoteClient) install(frame []byte, refTag uint64) error {
	p, err := c.wire.Decode(frame)
	if err != nil {
		return fmt.Errorf("fednet: bad downlink frame: %w", err)
	}
	return c.wire.Install(p, refTag, func(p fed.Payload) error { return c.Transport.Download(c.Local, p) })
}

// Fetch pulls any model state committed since this client's last install —
// the async protocol's second half (Async reports whether the server runs
// async rounds). It installs the fetched payload and advances the staleness
// base, returning whether anything new arrived. Transient failures retry
// like syncRound; a retry after a successful install is idempotent (the
// advanced base makes the server answer "nothing new").
func (c *RemoteClient) Fetch() (installed bool, err error) {
	err = c.retry("fetch", func() error {
		reply := FetchReply{Frame: c.down}
		if err := c.call(methodFetch, FetchArgs{ClientID: c.id, Base: c.base}, &reply); err != nil {
			return err
		}
		if c.down = reply.Frame; !reply.Has {
			return nil
		}
		if err := c.install(reply.Frame, reply.RefTag); err != nil {
			return err
		}
		c.base, installed = reply.Round, true
		return nil
	})
	return installed, err
}

// Async reports whether the server runs asynchronous rounds.
func (c *RemoteClient) Async() bool { return c.async }

// resync recovers from a missed round: rejoin our slot and install the
// current global payload, leaving the round counter aligned with the server
// instead of poisoned behind it.
func (c *RemoteClient) resync() error {
	return c.retry("resync", func() error {
		var reply JoinReply
		if err := c.call(methodJoin, JoinArgs{Rejoin: true, ClientID: c.id}, &reply); err != nil {
			return err
		}
		if err := c.Transport.Download(c.Local, reply.Global); err != nil {
			return err
		}
		// A raw out-of-band install: the server forgot our reference on the
		// rejoin, so the next uplink must be absolute.
		c.wire.Desynced()
		c.round = reply.Round
		c.stats.Resyncs++
		mNetResyncs.Inc()
		if obs.Active() {
			obs.Emit(obs.E("resync").At(c.id, c.round, -1))
		}
		return nil
	})
}

// noteRetry records one re-attempted step in the metrics and, when a sink is
// installed, as an "rpc_retry" event carrying the failing step and cause.
func (c *RemoteClient) noteRetry(step string, attempt int, err error) {
	mNetRetries.Inc()
	if obs.Active() {
		obs.Emit(obs.E("rpc_retry").At(c.id, c.round, -1).
			S("step", step).
			F("attempt", float64(attempt)).
			S("error", err.Error()))
	}
}

// Close releases the connection.
func (c *RemoteClient) Close() error { return c.rpc.Close() }
