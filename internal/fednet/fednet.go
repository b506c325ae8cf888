// Package fednet runs the federated layer over a real network: a TCP
// aggregation server (stdlib net/rpc with gob encoding) and remote clients
// that train locally and exchange only model payloads — the paper's
// cross-provider collaboration made literal, with no workload data ever
// leaving a client (§1, §3.4).
//
// Protocol (one barrier round; ServerConfig.Async replaces the barrier by
// submit-and-return plus a Fetch RPC, see SyncArgs and FetchArgs):
//
//  1. Every client calls Sync(round, upload). The call blocks server-side
//     on a round barrier.
//  2. When all registered clients have arrived — or the round deadline
//     expires — the server submits the arrivals to the engine in ascending
//     client id and closes the round: the engine draws the K participants
//     from them, aggregates their uploads (participation-weighted: each
//     arrival carries equal weight) and stores the new global model; the
//     server releases the barrier.
//  3. Each Sync returns the caller's personalized payload (participants) or
//     the stored global model (everyone else) — exactly Algorithm 1's
//     lines 9–15, distributed.
//
// Fault tolerance: Sync is idempotent within a round (a duplicate upload
// from a retrying client is accepted and first-wins), the results of the
// most recently completed round are retained so a client whose reply was
// lost can re-fetch it, and a straggler that missed its round entirely is
// told so and re-downloads the current global model via State instead of
// poisoning the round counter.
//
// Neither the round policy (what an acceptable upload is, seeded K-of-N
// selection, partial aggregation, report bookkeeping, the late-join rule) nor
// the wire session (framing, delta references, traffic counting) is
// implemented here: Server and RemoteClient are thin adapters over the round
// engine and the two ends of the wire in internal/fedcore, the types that
// back the in-process fed.Federation. The design trades throughput for
// reproducibility: uploads are aggregated in registration order and
// participant selection is seeded, so a fednet round is bit-identical to an
// in-process round with the same inputs (asserted by the cross-path
// equivalence golden test in internal/fedcore).
package fednet

import (
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"time"

	"repro/internal/fed"
	"repro/internal/fedcore"
)

// Error-message prefixes shared by server and client. net/rpc flattens
// server-side errors to strings, so the client classifies them by prefix.
const (
	// msgRoundPassed tells a straggler its round aggregated without it;
	// the client must resync via State instead of retrying.
	msgRoundPassed = "fednet: round passed"
	// msgBadUpload flags a corrupt-length upload; the client should
	// rebuild the payload and retry.
	msgBadUpload = "fednet: bad upload"
	// msgRefMismatch flags a delta frame whose reference tag does not match
	// the server's bookkeeping (a lost reply left the two ends on different
	// references); the client clears its reference and retries absolutely.
	msgRefMismatch = "fednet: delta reference mismatch"
	// msgClosed answers every Sync held or made after Server.Close; it
	// matches no retryable prefix, so clients give up at once.
	msgClosed = "fednet: server closed"
)

// JoinArgs registers a client with the server.
type JoinArgs struct {
	Name string
	// Rejoin reclaims the slot ClientID after a client restart instead of
	// allocating a fresh one.
	Rejoin   bool
	ClientID int
}

// JoinReply carries the assigned client id, the current global model, the
// server's current round (non-zero when rejoining mid-training), whether the
// server runs asynchronous rounds (which switches the client's Sync
// semantics — see SyncArgs), and the wire codec the client must frame its
// payloads with. The bootstrap global itself travels raw: joins are rare,
// and an exact install gives delta encoding a clean starting point.
type JoinReply struct {
	ClientID int
	Global   fed.Payload
	Round    int
	Async    bool
	Codec    fedcore.CodecConfig
}

// SyncArgs submits one round's upload as a codec frame (the wire's client end
// encodes, its server end decodes — measured wire bytes, not gob-encoded
// float64 slices).
//
// In sync mode Round is the server round the client believes it is
// submitting to (the barrier alignment check). In async mode there is no
// barrier: Round is the client's monotone submission sequence number (the
// engine's dedup key — a retransmit after a lost reply carries the same
// value), and Base is the server round whose global the client last
// installed (the staleness anchor).
type SyncArgs struct {
	ClientID int
	Round    int
	Frame    []byte
	Base     int
}

// SyncReply returns the frame to install after the round. Round is the
// server's round index after this sync; async clients adopt it as their next
// staleness base. A non-zero RefTag instructs the client to adopt the
// decoded payload as its next delta reference under that tag.
type SyncReply struct {
	Frame       []byte
	RefTag      uint64
	Participant bool
	Round       int
}

// FetchArgs asks an async server for model state committed since the
// client's Base round — the pull half of the async protocol: a submission
// that lands before a commit is answered immediately with the then-current
// global, so the client collects its committed (possibly personalized)
// result on its next contact instead.
type FetchArgs struct {
	ClientID int
	Base     int
}

// FetchReply carries the fetched frame when Has is set; Has false means no
// round has committed since Base and the client keeps what it has. RefTag is
// as in SyncReply.
type FetchReply struct {
	Frame       []byte
	RefTag      uint64
	Participant bool
	Round       int
	Has         bool
}

// StateArgs requests the server's current round state.
type StateArgs struct{}

// StateReply carries the current round index and global model — the rejoin
// path for clients that missed a round.
type StateReply struct {
	Round  int
	Global fed.Payload
}

// RoundInfo records one completed aggregation round. It is the engine's
// unified report: on this path Expected is the registered-client count the
// barrier waited for, Arrived is how many uploads were present when the
// round closed, and Participants is the K-selection applied to the
// arrivals.
type RoundInfo = fedcore.RoundReport

// ServerConfig parameterizes a federation server.
type ServerConfig struct {
	// Clients is N: the number of clients that must register and that the
	// round barrier waits for.
	Clients int
	// K is the number of participants aggregated per round (<=0 or >N
	// means full participation).
	K int
	// Seed drives participant selection.
	Seed int64
	// InitialGlobal is ψ_G^(0), delivered to every joiner.
	InitialGlobal fed.Payload
	// Aggregator combines the uploads each round.
	Aggregator fed.Aggregator
	// RoundTimeout bounds how long a round stays open once its first
	// upload arrives; on expiry the server aggregates with whoever has
	// arrived. 0 waits for the full barrier forever (the strict protocol).
	// Ignored in async mode, which has no barrier to time out.
	RoundTimeout time.Duration

	// Async switches the server to buffered asynchronous aggregation: Sync
	// never blocks on a barrier; deltas are staleness-weighted and a commit
	// fires every Buffer accepted arrivals (fedcore.AsyncEngine).
	Async bool
	// StalenessBound caps accepted staleness in async mode (negative =
	// unbounded, zero = fresh only — the sync-degradation setting).
	StalenessBound int
	// Buffer is the async commit trigger B; <= 0 resolves to K.
	Buffer int

	// Codec selects the payload wire codec, announced to every joiner. The
	// zero value (identity tier, absolute) frames payloads bit-exactly — the
	// degradation-pin setting.
	Codec fedcore.CodecConfig
}

// Server is the aggregation endpoint: the RPC data plane over the shared
// round engine. Create with NewServer, then Listen.
type Server struct {
	cfg      ServerConfig
	engine   *fedcore.AsyncEngine
	listener net.Listener
	rpcSrv   *rpc.Server

	// mu guards everything below and is held across engine calls, so the
	// engine's Delivery callback runs under it. Lock order: mu → engine.
	mu     sync.Mutex
	nextID int
	closed bool

	// Barrier regime: the decoded uploads of the open round by client id
	// (nil = not arrived) and their count, the channel its waiters block on,
	// the deadline armed at the first upload, and the closed round's
	// per-client replies, retained until the next round supersedes them so a
	// client whose reply was lost can re-fetch it.
	pending     []fed.Payload
	arrived     int
	roundDone   chan struct{}
	timer       *time.Timer
	lastRound   int
	lastResults map[int]SyncReply

	// Async regime: personalized payloads of commits their owner has not
	// collected yet (push transports have no open reply to carry them),
	// consumed by the owner's next Sync or Fetch. Entries are copies: the
	// engine's payloads live in arena buffers rewritten next commit.
	retained map[int]fed.Payload

	// wire is the server end of the wire session: the per-client delta
	// references, uplink decode, downlink framing, measured traffic.
	wire *fedcore.WireServer
}

// NewServer builds a server; it does not listen yet. Round policy (K
// resolution, aggregator and initial-model validation) is the engine's.
func NewServer(cfg ServerConfig) (*Server, error) {
	s := &Server{
		cfg:       cfg,
		roundDone: make(chan struct{}),
		lastRound: -1,
		retained:  map[int]fed.Payload{},
		wire:      fedcore.NewWireServer(cfg.Codec),
	}
	deliver := s.deliverBarrier
	if cfg.Async {
		deliver = s.retainPersonalized
	}
	engine, err := fedcore.NewAsync(cfg.Aggregator, cfg.InitialGlobal, fedcore.AsyncOptions{
		Options:        fedcore.Options{K: cfg.K, Clients: cfg.Clients, Seed: cfg.Seed},
		StalenessBound: cfg.StalenessBound,
		Buffer:         cfg.Buffer,
		Barrier:        !cfg.Async,
	}, deliver)
	if err != nil {
		return nil, fmt.Errorf("fednet: %w", err)
	}
	s.engine = engine
	s.pending = make([]fed.Payload, cfg.Clients)
	s.rpcSrv = rpc.NewServer()
	if err := s.rpcSrv.RegisterName("Federation", &rpcHandler{s: s}); err != nil {
		return nil, err
	}
	return s, nil
}

// Listen binds the server to addr (e.g. "127.0.0.1:0") and starts accepting
// connections in background goroutines. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.listener = ln
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			go s.rpcSrv.ServeConn(conn)
		}
	}()
	return ln.Addr().String(), nil
}

// Close stops accepting connections, stops the round deadline and releases
// every Sync blocked on the open barrier with a non-retryable "server closed"
// error; later Syncs fail the same way. Safe to call multiple times.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	close(s.roundDone)
}

// Global returns a copy of the current global model.
func (s *Server) Global() fed.Payload { return s.engine.Global() }

// Rounds returns the number of completed aggregation rounds.
func (s *Server) Rounds() int { return s.engine.Round() }

// Reports returns one RoundInfo per completed round.
func (s *Server) Reports() []RoundInfo { return s.engine.Reports() }

// Comm returns the measured wire traffic accumulated by the server: scalar
// counts and actual codec frame bytes in both directions.
func (s *Server) Comm() fed.CommStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wire.Comm()
}

// rpcHandler is the net/rpc receiver (kept separate so Server's exported
// methods don't have to fit the RPC signature shape).
type rpcHandler struct{ s *Server }

// Join implements the registration RPC. A fresh join allocates the next
// slot; a rejoin reclaims an existing slot after a client restart and
// returns the current round so the restarted client resumes in step. The
// payload handed out is the engine's out-of-band install rule — the same one
// that serves an in-process fed.AddClient and a State resync.
func (h *rpcHandler) Join(args JoinArgs, reply *JoinReply) error {
	s := h.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if args.Rejoin {
		if args.ClientID < 0 || args.ClientID >= s.nextID {
			return fmt.Errorf("fednet: rejoin of unknown client %d (joined: %d)", args.ClientID, s.nextID)
		}
		reply.ClientID = args.ClientID
	} else {
		if s.nextID >= s.cfg.Clients {
			return fmt.Errorf("fednet: federation is full (%d clients)", s.cfg.Clients)
		}
		reply.ClientID = s.nextID
		s.nextID++
	}
	// The engine clears the slot's dedup state; the joiner installs the raw
	// global out-of-band, so whatever else a previous life of this slot left
	// behind — a delta reference, an uncollected result — is void too.
	reply.Round, reply.Global = s.engine.Join(reply.ClientID)
	reply.Async = s.cfg.Async
	reply.Codec = s.cfg.Codec
	s.wire.Forget(reply.ClientID)
	delete(s.retained, reply.ClientID)
	gNetClients.Set(float64(s.nextID))
	return nil
}

// State implements the resync RPC: a straggler that missed its round calls
// it to adopt the current round index and global model, under the same
// engine rule as a fresh joiner.
func (h *rpcHandler) State(_ StateArgs, reply *StateReply) error {
	reply.Round, reply.Global = h.s.engine.State()
	return nil
}

// checkLocked rejects calls to a closed server and ids no Join handed out:
// an id inside the configured fleet that nobody joined is as unknown as one
// outside it.
func (s *Server) checkLocked(clientID int) error {
	if s.closed {
		return errors.New(msgClosed)
	}
	if clientID < 0 || clientID >= s.nextID {
		return fmt.Errorf("fednet: unknown client %d", clientID)
	}
	return nil
}

// uploadErr gives a rejected upload the prefix the client classifies it by:
// msgRefMismatch for a delta against a reference the wire does not hold (go
// absolute and retry), msgBadUpload for everything else — a malformed frame,
// a wrong length, a non-finite value (rebuild and retry).
func uploadErr(clientID int, cause error) error {
	msg := msgBadUpload
	if errors.Is(cause, fedcore.ErrRefMismatch) {
		msg = msgRefMismatch
	}
	return fmt.Errorf("%s: client %d: %v", msg, clientID, cause)
}

// noteCommit books one commit in the server-side instruments.
func (s *Server) noteCommit(report RoundInfo) {
	mNetRounds.Inc()
	if report.TimedOut {
		mNetTimedOut.Inc()
	}
	gNetRound.Set(float64(report.Round + 1))
}

// Sync implements the round exchange RPC: the round barrier in sync mode, a
// non-blocking staleness-weighted submission in async mode. The two share
// the upload and downlink paths and the engine; they differ in what the
// protocol pins — whether the reply waits for the commit, the order arrivals
// reach the engine, and how long a result is retained (DESIGN §9 contract 16).
func (h *rpcHandler) Sync(args SyncArgs, reply *SyncReply) error {
	if h.s.cfg.Async {
		return h.s.syncAsync(args, reply)
	}
	return h.s.syncBarrier(args, reply)
}

// syncBarrier holds the caller until its round closes: on the last
// registered client's arrival, or at the deadline armed by the first.
func (s *Server) syncBarrier(args SyncArgs, reply *SyncReply) error {
	round, done, err := s.arrive(args, reply)
	if done == nil {
		return err
	}
	<-done

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lastRound != round {
		// Woken by Close, not by the round.
		return errors.New(msgClosed)
	}
	res, ok := s.lastResults[args.ClientID]
	if !ok {
		return fmt.Errorf("fednet: no result for client %d", args.ClientID)
	}
	*reply = res
	return nil
}

// arrive admits one barrier Sync under the lock. It returns the open round
// and the channel to wait on, or a nil channel when the call is already
// answered: an error, or — for a retry of the round that just completed —
// the retained result.
func (s *Server) arrive(args SyncArgs, reply *SyncReply) (round int, done chan struct{}, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkLocked(args.ClientID); err != nil {
		return 0, nil, err
	}
	round = s.engine.Round()
	if res, ok := s.lastResults[args.ClientID]; ok && args.Round == s.lastRound {
		*reply = res
		return round, nil, nil
	}
	switch {
	case args.Round < round:
		// The round closed without this client: it must resync.
		return round, nil, fmt.Errorf("%s: client %d is on round %d, server on %d", msgRoundPassed, args.ClientID, args.Round, round)
	case args.Round > round:
		return round, nil, fmt.Errorf("fednet: client %d is ahead on round %d, server on %d", args.ClientID, args.Round, round)
	}
	if s.pending[args.ClientID] == nil {
		// First-wins: a duplicate from a retrying client changes nothing.
		up, err := s.wire.Decode(args.ClientID, args.Frame)
		if want := s.engine.PayloadLen(); err == nil && len(up) != want {
			err = fmt.Errorf("length %d, want %d", len(up), want)
		}
		if err != nil {
			return round, nil, uploadErr(args.ClientID, err)
		}
		s.wire.Accepted(args.ClientID)
		s.pending[args.ClientID] = up
		if s.arrived++; s.arrived == 1 && s.cfg.RoundTimeout > 0 {
			s.timer = time.AfterFunc(s.cfg.RoundTimeout, func() { s.deadline(round) })
		}
	}
	done = s.roundDone
	if s.arrived == s.cfg.Clients {
		s.closeRoundLocked(false)
	}
	return round, done, nil
}

// deadline closes round r with whoever arrived, if it is still open.
func (s *Server) deadline(r int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.engine.Round() != r || s.arrived == 0 {
		return // the round already closed on a full barrier
	}
	s.closeRoundLocked(true)
}

// closeRoundLocked closes the open barrier round: the pending arrivals are
// submitted in ascending client id — so racing clients reach the engine in
// registration order, as the in-process federation's do — the engine's
// barrier trigger commits them (the commit-time draw picks K of the
// arrivals: identity order at full participation, a seeded shuffle
// otherwise, each participant at equal weight), deliverBarrier retains the
// per-client replies, and the waiters are released. Caller holds s.mu.
func (s *Server) closeRoundLocked(timedOut bool) {
	round := s.engine.Round()
	s.lastRound = round
	for id, up := range s.pending {
		// Lengths were checked on arrival; a non-finite upload is rejected
		// here, counted in the report, and its client is answered with the
		// global like any non-participant.
		if up != nil {
			_, _ = s.engine.Submit(id, round+1, round, up)
		}
	}
	report, _ := s.engine.CloseRound(timedOut)
	s.noteCommit(report)
	clear(s.pending)
	s.arrived = 0
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	close(s.roundDone)
	s.roundDone = make(chan struct{})
}

// deliverBarrier is the barrier regime's Delivery: every arrival's reply —
// its personalized payload if it was drawn, the new global otherwise — is
// framed and retained until the next round supersedes it. Runs under s.mu
// (held by closeRoundLocked) and the engine lock.
func (s *Server) deliverBarrier(personalized map[int]fedcore.Payload, global fedcore.Payload) (int, time.Duration) {
	s.wire.NextRound()
	results := make(map[int]SyncReply, s.arrived)
	for id, up := range s.pending {
		if up == nil {
			continue
		}
		p, participant := personalized[id]
		if !participant {
			p = global
		}
		// Retained across rounds, so copied out of the wire's buffer.
		frame, _, tag := s.wire.Frame(id, p)
		results[id] = SyncReply{Frame: append([]byte(nil), frame...), RefTag: tag, Participant: participant, Round: s.lastRound + 1}
	}
	s.lastResults = results
	return 0, 0
}

// retainPersonalized is the async regime's Delivery: participants collect
// their personalized payloads on their next contact, so copies are retained
// until then. Runs under s.mu (held by the submitter or Flush) and the engine
// lock.
func (s *Server) retainPersonalized(personalized map[int]fedcore.Payload, _ fedcore.Payload) (int, time.Duration) {
	s.wire.NextRound()
	for id, p := range personalized {
		s.retained[id] = append(fed.Payload(nil), p...)
	}
	return 0, 0
}

// answerLocked frames what the client should install now: its retained
// personalized payload, consumed by the take, or else the current global. The
// frame is sent after the lock is released, so copied out of the wire's buffer.
func (s *Server) answerLocked(clientID int) (frame []byte, tag uint64, participant bool) {
	p, participant := s.retained[clientID]
	if participant {
		delete(s.retained, clientID)
	} else {
		p = s.engine.Global()
	}
	frame, _, tag = s.wire.Frame(clientID, p)
	return append([]byte(nil), frame...), tag, participant
}

// syncAsync submits to the buffered engine (which may commit a round inside
// the call) and replies immediately — the caller never waits out a barrier.
// The reply carries the client's personalized payload when one is available
// (from the commit this submission triggered, or retained from an earlier
// commit the client participated in), otherwise the current global.
// Duplicate submissions (retransmits after a lost reply) are answered
// idempotently the same way.
func (s *Server) syncAsync(args SyncArgs, reply *SyncReply) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkLocked(args.ClientID); err != nil {
		return err
	}
	up, err := s.wire.Decode(args.ClientID, args.Frame)
	if err != nil {
		return uploadErr(args.ClientID, err)
	}
	res, err := s.engine.Submit(args.ClientID, args.Round, args.Base, up)
	switch {
	case res.Status == fedcore.SubmitNonFinite:
		return uploadErr(args.ClientID, errors.New("non-finite values"))
	case err != nil:
		return uploadErr(args.ClientID, fmt.Errorf("length %d, want %d", len(up), s.engine.PayloadLen()))
	}
	s.wire.Accepted(args.ClientID)
	if res.Committed != nil {
		s.noteCommit(*res.Committed)
	}
	reply.Round = res.Round
	reply.Frame, reply.RefTag, reply.Participant = s.answerLocked(args.ClientID)
	return nil
}

// Fetch implements the async pull RPC: when a round has committed since the
// client's Base, it returns the client's retained personalized payload (if
// it participated in that commit) or the current global. Sync servers
// reject it — the barrier reply already delivers every result.
func (h *rpcHandler) Fetch(args FetchArgs, reply *FetchReply) error {
	s := h.s
	if !s.cfg.Async {
		return fmt.Errorf("fednet: Fetch requires an async server")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkLocked(args.ClientID); err != nil {
		return err
	}
	reply.Round = s.engine.Round()
	if reply.Round <= args.Base {
		return nil
	}
	reply.Has = true
	reply.Frame, reply.RefTag, reply.Participant = s.answerLocked(args.ClientID)
	return nil
}

// Flush force-commits a partially filled buffer (end of a run) so trailing
// deltas are not lost. A no-op when the buffer is empty — always, in sync
// mode, where every round closes on its own.
func (s *Server) Flush() (RoundInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	report, ok := s.engine.Flush()
	if ok {
		s.noteCommit(report)
	}
	return report, ok
}
