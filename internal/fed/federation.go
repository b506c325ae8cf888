package fed

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/fedcore"
	"repro/internal/obs"
)

// RoundReport is the engine's per-round participation record — the
// partial-participation bookkeeping surfaced on core.TrainResult.
type RoundReport = fedcore.RoundReport

// Federation is the in-process adapter over the shared round engine
// (internal/fedcore): it drives Algorithm 1 by interleaving local training
// segments with engine rounds, pulling uploads from the engine's selected
// clients and delivering the results over its Transport. All round policy —
// seeded K-of-N selection, the accept rules, partial aggregation, the commit
// trigger, report bookkeeping, the late-join rule — lives in the engine; this
// type owns only the data plane.
type Federation struct {
	Clients   []*Client
	Transport Transport
	Agg       Aggregator

	// Engine is the shared round state machine, built with the barrier
	// trigger unless Options.Async; the networked fednet.Server wraps the
	// same type, which is what keeps the two paths bit-identical.
	Engine *fedcore.AsyncEngine

	// K is the number of clients that participate in each aggregation
	// (K ≤ N; the paper uses K = N/2 for PFRL-DM), as resolved by the
	// engine.
	K int
	// CommEvery is the communication frequency: episodes of local training
	// between aggregations.
	CommEvery int
	// Parallel trains clients in concurrent goroutines within a segment.
	// Results are identical either way: clients are independent and each
	// agent owns its RNG.
	Parallel bool

	// Global mirrors the engine's stored payload ψ_G (or the full model for
	// actor+critic transports) after each round, delivered to
	// non-participants and late joiners.
	Global Payload

	// Rounds mirrors the engine's completed-round count.
	Rounds int

	// Reports mirrors the engine's participation records.
	Reports []RoundReport

	comm CommStats

	// Wire codec state. Every payload crossing the in-process "wire" is
	// framed and decoded through the same fedcore codec the networked path
	// uses, so CommStats measures real frame bytes and the lossy tiers
	// affect training identically on both paths. upEnc holds one uplink
	// encoder per client (delta reference + error-feedback residual);
	// downEnc is the shared stateless downlink framer. refs/refTags are the
	// server-side delta references (the last model each client installed);
	// the remaining fields are pooled scratch so steady-state rounds
	// allocate nothing.
	codec   fedcore.CodecConfig
	upEnc   []*fedcore.Encoder
	downEnc *fedcore.Encoder
	refs    []Payload
	refTags []uint64
	refSeq  uint64
	upBufs  []Payload
	downBuf Payload

	// Downlink frame cache: with FedAvg/Momentum every participant receives
	// the same payload (the aggregators alias it), so one encode serves the
	// whole delivery loop. Keyed by payload identity, reset per commit.
	downPtr   *float64
	downLen   int
	downFrame int

	// all is 0..N-1, the pull-side draw's candidates.
	all []int

	// Submission bookkeeping: per-client monotone submission counters (the
	// dedup key), per-client base rounds (the round whose global each client
	// last installed — the staleness anchor), the number of committed rounds
	// (mirrors Engine.Round without locking inside deliveries), and the
	// error a delivery callback surfaced.
	clientSeq  []int
	clientBase []int
	committed  int
	deliverErr error
}

// Options configures New.
type Options struct {
	K         int
	CommEvery int
	Seed      int64
	Parallel  bool

	// Async switches the engine's commit trigger from the segment barrier
	// (every RunRound closes one round over whatever its selected clients
	// uploaded) to buffered asynchronous aggregation: uploads are
	// staleness-weighted and commits fire every Buffer accepted arrivals.
	Async bool
	// StalenessBound caps accepted staleness in async mode (negative =
	// unbounded). Zero accepts only fresh deltas — with Buffer = K this
	// reproduces the barrier bit-identically.
	StalenessBound int
	// Buffer is the async commit trigger B; <= 0 resolves to K.
	Buffer int

	// Codec selects the payload wire codec. The zero value (identity tier,
	// absolute encoding) frames payloads bit-exactly — the degradation-pin
	// setting.
	Codec fedcore.CodecConfig
}

// New assembles a federation and synchronizes all clients with the initial
// global model (the server's ψ_G^(0) in Algorithm 1, taken from client 0's
// initialization so the whole federation shares a starting point, as in
// standard FL).
func New(clients []*Client, transport Transport, agg Aggregator, opts Options) (*Federation, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("fed: no clients")
	}
	commEvery := opts.CommEvery
	if commEvery <= 0 {
		commEvery = 1
	}
	initial, err := transport.Upload(clients[0])
	if err != nil {
		return nil, fmt.Errorf("fed: initial upload from client %d: %w", clients[0].ID, err)
	}
	f := &Federation{
		Transport: transport,
		Agg:       agg,
		CommEvery: commEvery,
		Parallel:  opts.Parallel,
		codec:     opts.Codec,
	}
	// Downlink frames are absolute and stateless (no residual) so one
	// encoder serves every client and identical payloads encode once.
	f.downEnc = fedcore.NewEncoder(fedcore.CodecConfig{Tier: opts.Codec.Tier, NoErrorFeedback: true})
	for _, c := range clients {
		f.addSlot(c, 0)
	}
	f.Engine, err = fedcore.NewAsync(agg, initial, fedcore.AsyncOptions{
		Options:        fedcore.Options{K: opts.K, Clients: len(clients), Seed: opts.Seed},
		StalenessBound: opts.StalenessBound,
		Buffer:         opts.Buffer,
		Barrier:        !opts.Async,
	}, f.deliverCommit)
	if err != nil {
		return nil, fmt.Errorf("fed: %w", err)
	}
	f.K = f.Engine.K()
	f.Global = f.Engine.Global()
	for _, c := range clients {
		if err := transport.Download(c, f.Global); err != nil {
			return nil, fmt.Errorf("fed: initial sync to client %d: %w", c.ID, err)
		}
	}
	return f, nil
}

// trainSegment runs CommEvery local episodes on every client.
func (f *Federation) trainSegment(episodes int) {
	if !f.Parallel {
		for _, c := range f.Clients {
			c.TrainEpisodes(episodes)
		}
		return
	}
	var wg sync.WaitGroup
	for _, c := range f.Clients {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			c.TrainEpisodes(episodes)
		}(c)
	}
	wg.Wait()
}

// RunRound performs one full round: a local-training segment, the engine's
// pull-side draw of K participants, and one upload + Submit per drawn client.
// Under the barrier trigger the round then closes over whatever arrived;
// under the buffer trigger commits fire inside Submit whenever B accepted
// arrivals are buffered, so one segment may commit zero rounds (after upload
// drops) or the buffer may carry arrivals across segments when B ≠ K. At
// every commit participants receive their personalized payloads and every
// other client the stored global model (Algorithm 1, lines 13–15).
//
// Transient transport faults (ErrInjectedFault) do not fail the round: a
// client whose upload drops simply does not participate (corrupt-length and
// non-finite uploads are rejected by the engine), and a client whose download
// drops keeps its previous parameters until the next commit. Any other
// transport error — a misconfigured client, say — surfaces as the returned
// error; a fatal upload error aborts before the round closes, while a fatal
// download error is reported after the commit (the aggregation itself
// already happened).
func (f *Federation) RunRound() error {
	f.trainSegment(f.CommEvery)

	selected := f.Engine.Select(f.all)
	f.deliverErr = nil
	for _, idx := range selected {
		callStart := time.Now()
		u, err := f.Transport.Upload(f.Clients[idx])
		obs.GlobalTimers().Add(obs.PhaseComm, time.Since(callStart))
		switch {
		case errors.Is(err, ErrInjectedFault):
			f.Engine.AbsorbUploadDrops(1)
			continue
		case err != nil:
			return fmt.Errorf("fed: round %d upload from client %d: %w", f.Rounds, f.Clients[idx].ID, err)
		}
		f.comm.UploadScalars += int64(len(u))
		f.clientSeq[idx]++
		// A rejected upload (ErrBadUpload) is already counted by the engine;
		// the client simply sits this round out.
		_, _ = f.Engine.Submit(idx, f.clientSeq[idx], f.clientBase[idx], f.recvUpload(idx, u))
		if f.deliverErr != nil {
			break
		}
	}
	// A no-op unless the engine runs the barrier trigger.
	f.Engine.CloseRound(false)
	f.syncMirrors()
	return f.deliverErr
}

// recvUpload moves one upload across the simulated wire: the client's
// encoder frames it (delta + error feedback per the codec config), the frame
// bytes are accounted, and the server-side decode — against the delta
// reference both ends agreed on at the last delivery — becomes the
// contribution the engine aggregates. Under the identity tier the decode is
// bit-exact, which is the degradation pin. The returned payload is the
// pooled per-client decode buffer, valid until this client's next upload.
func (f *Federation) recvUpload(idx int, u Payload) Payload {
	if len(u) == 0 {
		// Nothing to frame; the engine rejects zero-length uploads itself.
		return u
	}
	frame := f.upEnc[idx].Encode(u)
	f.comm.UploadBytes += int64(len(frame))
	fedcore.ObserveWireUpload(len(frame))
	dec, h, err := fedcore.DecodeFrame(frame, f.refs[idx], f.upBufs[idx])
	if err == nil && h.Delta && h.RefTag != f.refTags[idx] {
		err = fedcore.ErrRefMismatch
	}
	if err != nil {
		// Both codec ends live in this struct and update in lockstep, so a
		// decode failure here is a bug, not a network condition.
		panic(fmt.Sprintf("fed: codec desync on client %d upload: %v", idx, err))
	}
	f.upBufs[idx] = dec
	return dec
}

// sendDown moves one payload across the simulated downlink: an absolute
// stateless frame, cached by payload identity so the aggregators' aliased
// personalized payloads (FedAvg, Momentum — every participant gets the same
// model) encode once per commit. Returns the client-side decode and the
// frame length; the decode is the shared downlink buffer, valid until the
// next distinct payload is framed.
func (f *Federation) sendDown(payload Payload) (Payload, int) {
	if len(payload) == 0 {
		return payload, 0
	}
	if f.downPtr == &payload[0] && f.downLen == len(payload) {
		return f.downBuf, f.downFrame
	}
	frame := f.downEnc.Encode(payload)
	dec, _, err := fedcore.DecodeFrame(frame, nil, f.downBuf)
	if err != nil {
		panic(fmt.Sprintf("fed: codec desync on downlink: %v", err))
	}
	f.downBuf = dec
	f.downPtr, f.downLen, f.downFrame = &payload[0], len(payload), len(frame)
	return dec, len(frame)
}

// deliverCommit distributes one committed round's results: participants
// receive their personalized payloads, everyone else the new global. It is
// the engine's Delivery callback and runs under the engine lock, so it must
// not call back into the engine — the committed-round counter mirrors
// Engine.Round for that reason.
func (f *Federation) deliverCommit(personalized map[int]fedcore.Payload, global fedcore.Payload) (int, time.Duration) {
	f.committed++
	f.downPtr = nil // arena buffers are rewritten per commit; drop the cache
	drops := 0
	var commDur time.Duration
	for idx, c := range f.Clients {
		c.CriticLossPre = append(c.CriticLossPre, c.probeCriticLoss())
		payload, ok := personalized[idx]
		if !ok {
			payload = global
		}
		wire, frameLen := f.sendDown(payload)
		callStart := time.Now()
		err := f.Transport.Download(c, wire)
		commDur += time.Since(callStart)
		switch {
		case errors.Is(err, ErrInjectedFault):
			drops++
		case err != nil:
			f.deliverErr = fmt.Errorf("fed: round %d download to client %d: %w", f.committed-1, c.ID, err)
			return drops, commDur
		default:
			f.comm.DownloadScalars += int64(len(payload))
			f.comm.DownloadBytes += int64(frameLen)
			fedcore.ObserveWireDownload(frameLen)
			// The client installed this commit's global: its next delta is
			// fresh relative to round f.committed.
			f.clientBase[idx] = f.committed
			if f.codec.Delta {
				// Both ends saw this install: it becomes the client's next
				// delta reference, under a fresh tag.
				f.refSeq++
				f.upEnc[idx].SetRef(f.refSeq, wire)
				f.refs[idx] = append(f.refs[idx][:0], wire...)
				f.refTags[idx] = f.refSeq
			}
		}
		c.CriticLossPost = append(c.CriticLossPost, c.probeCriticLoss())
	}
	fedcore.SetCompressionRatio(f.comm.CompressionRatio())
	return drops, commDur
}

// syncMirrors refreshes the exported engine mirrors after rounds commit.
func (f *Federation) syncMirrors() {
	f.Global = f.Engine.Global()
	f.Rounds = f.Engine.Round()
	f.Reports = f.Engine.Reports()
	f.comm.Rounds = f.Rounds
}

// RunEpisodes trains for the given number of episodes per client,
// aggregating every CommEvery episodes. A trailing partial segment (when
// episodes is not a multiple of CommEvery) is trained locally without a
// final aggregation, matching the paper's setup where training ends on a
// local segment.
func (f *Federation) RunEpisodes(episodes int) error {
	full := episodes / f.CommEvery
	for r := 0; r < full; r++ {
		if err := f.RunRound(); err != nil {
			return err
		}
	}
	if rem := episodes % f.CommEvery; rem > 0 {
		f.trainSegment(rem)
	}
	// Commit any trailing partial buffer so deltas submitted after the last
	// commit are not lost. A no-op when every submission already committed —
	// always, under the barrier trigger.
	f.deliverErr = nil
	if _, ok := f.Engine.Flush(); ok {
		f.syncMirrors()
	}
	return f.deliverErr
}

// AddClient joins a new client mid-training (the Figure-20 scenario),
// initializing it under the engine's late-join policy — the same rule a
// fednet joiner or resyncing straggler gets: the current global payload.
func (f *Federation) AddClient(c *Client) error {
	round, global := f.Engine.Join(len(f.Clients))
	if err := f.Transport.Download(c, global); err != nil {
		return fmt.Errorf("fed: joining client %d: %w", c.ID, err)
	}
	f.addSlot(c, round)
	return nil
}

// addSlot appends client c and its per-client state. Its installs so far
// were out-of-band raw payloads (the constructor's initial sync, a join —
// matching the networked path's JoinReply), so it starts with a fresh
// encoder and no delta reference: its first uplink is absolute. base is the
// round whose global it holds.
func (f *Federation) addSlot(c *Client, base int) {
	f.all = append(f.all, len(f.Clients))
	f.Clients = append(f.Clients, c)
	f.upEnc = append(f.upEnc, fedcore.NewEncoder(f.codec))
	f.refs = append(f.refs, nil)
	f.refTags = append(f.refTags, 0)
	f.upBufs = append(f.upBufs, nil)
	f.clientSeq = append(f.clientSeq, 0)
	f.clientBase = append(f.clientBase, base)
}

// MeanRewardCurve averages the clients' reward curves elementwise over the
// first minLen episodes common to all clients.
func MeanRewardCurve(clients []*Client) []float64 {
	if len(clients) == 0 {
		return nil
	}
	minLen := len(clients[0].Rewards)
	for _, c := range clients[1:] {
		if len(c.Rewards) < minLen {
			minLen = len(c.Rewards)
		}
	}
	out := make([]float64, minLen)
	for _, c := range clients {
		for i := 0; i < minLen; i++ {
			out[i] += c.Rewards[i]
		}
	}
	inv := 1.0 / float64(len(clients))
	for i := range out {
		out[i] *= inv
	}
	return out
}
