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

	// Engine is the shared round state machine, always on the barrier
	// trigger; the networked fednet.Server wraps the same type, which is what
	// keeps the two paths bit-identical.
	Engine *fedcore.AsyncEngine

	// K is the number of clients that participate in each aggregation
	// (K ≤ N; the paper uses K = N/2 for PFRL-DM), as resolved by the
	// engine.
	K int
	// CommEvery is the communication frequency: episodes of local training
	// between aggregations.
	CommEvery int
	// Parallel trains clients in concurrent goroutines within a segment
	// (see TrainClients).
	Parallel bool

	// Global mirrors the engine's stored payload ψ_G (or the full model for
	// actor+critic transports) after each round, delivered to
	// non-participants and late joiners.
	Global Payload

	// Rounds mirrors the engine's completed-round count.
	Rounds int

	// Reports mirrors the engine's participation records.
	Reports []RoundReport

	// The wire session: every payload crosses the in-process "wire" through
	// the two ends the networked path puts an RPC between, so CommStats
	// measures real frame bytes and the lossy and delta tiers affect training
	// identically on both paths.
	wire *fedcore.WireServer
	ends []*fedcore.WireClient
	// up is the storage every upload is decoded into: the engine stages
	// what it accepts and never retains the decode.
	up Payload

	// all is 0..N-1, the pull-side draw's candidates.
	all []int

	// deliverErr is the error a delivery callback surfaced.
	deliverErr error
}

// Options configures New.
type Options struct {
	K         int
	CommEvery int
	Seed      int64
	Parallel  bool

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
	// The engine copies initial, so client 0's next Upload may reuse it.
	initial, err := transport.Upload(clients[0])
	if err != nil {
		return nil, fmt.Errorf("fed: initial upload from client %d: %w", clients[0].ID, err)
	}
	f := &Federation{
		Transport: transport,
		Agg:       agg,
		CommEvery: commEvery,
		Parallel:  opts.Parallel,
		wire:      fedcore.NewWireServer(opts.Codec),
	}
	for _, c := range clients {
		f.addSlot(c)
	}
	f.Engine, err = fedcore.NewAsync(agg, initial, fedcore.AsyncOptions{
		Options: fedcore.Options{K: opts.K, Clients: len(clients), Seed: opts.Seed},
		Barrier: true,
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

// TrainClients runs the given number of local episodes on every client, in
// one goroutine per client when parallel. Results are identical either way:
// clients are independent and each agent owns its RNG. The serial loop stays
// out of Fan: the closure Fan takes is a heap allocation, and a warm barrier
// round allocates nothing per segment (TestBarrierRoundSteadyStateAllocs).
func TrainClients(clients []*Client, episodes int, parallel bool) {
	if !parallel {
		for _, c := range clients {
			c.TrainEpisodes(episodes)
		}
		return
	}
	Fan(len(clients), len(clients), func(i int) error {
		clients[i].TrainEpisodes(episodes)
		return nil
	})
}

// Fan calls fn(i) for every i in [0, n): in ascending order on the calling
// goroutine when workers <= 1, and otherwise on min(workers, n) goroutines,
// the w-th taking i = w, w+workers, …. fn stores what it makes by index, so
// the outcome is the serial loop's whenever the calls are independent. The
// error returned is that of the lowest i that failed — the one the serial
// loop, which stops there, returns — and comes after every call has
// returned. It is the one fan-out of client work: training
// (TrainClients) and construction (core.BuildClients, the fednet swarm).
func Fan(n, workers int, fn func(i int) error) error {
	if workers <= 1 || n <= 1 {
		for i := range n {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	workers = min(workers, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunRound performs one full round: a local-training segment, the engine's
// pull-side draw of K participants, one upload + Submit per drawn client, and
// the barrier commit over whatever arrived. At the commit participants receive
// their personalized payloads and every other client the stored global model
// (Algorithm 1, lines 13–15).
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
	TrainClients(f.Clients, f.CommEvery, f.Parallel)

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
		f.submit(idx, u)
	}
	f.Engine.CloseRound(false)
	f.syncMirrors()
	return f.deliverErr
}

// submit moves one upload across the wire — the client end frames it (delta
// and error feedback per the codec), the server end decodes it against the
// reference the two share, into the one upload buffer — and hands the decode
// to the engine under the arguments fednet's barrier server uses: seq
// round+1 (monotone per client) and base round (which the barrier ignores).
// Under the identity tier the decode is bit-exact, which is the degradation
// pin. An upload the engine rejects (ErrBadUpload) is counted in its report,
// not in CommStats; its client sits the round out.
func (f *Federation) submit(idx int, u Payload) {
	up := u
	if len(u) > 0 { // nothing to frame; the engine rejects an empty upload itself
		var err error
		if up, err = f.wire.Decode(idx, f.ends[idx].Encode(u), f.up); err != nil {
			// The client end knows the outcome of every install in this
			// process: a bug, not a network condition.
			panic(fmt.Sprintf("fed: wire desync on client %d upload: %v", idx, err))
		}
		f.up = up
	}
	round := f.Engine.Round()
	if _, err := f.Engine.Submit(idx, round+1, round, up); err == nil {
		f.wire.Accepted(idx)
	}
}

// deliverCommit distributes one committed round's results: participants
// receive their personalized payloads, everyone else the new global. It is
// the engine's Delivery callback and runs under the engine lock, so it must
// not call back into the engine — the round count comes from the wire.
func (f *Federation) deliverCommit(personalized map[int]fedcore.Payload, global fedcore.Payload) (int, time.Duration) {
	committed := f.wire.NextRound()
	drops := 0
	var commDur time.Duration
	for idx, c := range f.Clients {
		c.CriticLossPre = append(c.CriticLossPre, c.probeCriticLoss())
		payload, ok := personalized[idx]
		if !ok {
			payload = global
		}
		_, view, tag := f.wire.Frame(idx, payload)
		callStart := time.Now()
		err := f.ends[idx].Install(view, tag, func(p Payload) error { return f.Transport.Download(c, p) })
		commDur += time.Since(callStart)
		switch {
		case errors.Is(err, ErrInjectedFault):
			drops++
		case err != nil:
			f.deliverErr = fmt.Errorf("fed: round %d download to client %d: %w", committed-1, c.ID, err)
			return drops, commDur
		}
		c.CriticLossPost = append(c.CriticLossPost, c.probeCriticLoss())
	}
	return drops, commDur
}

// syncMirrors refreshes the exported engine mirrors after rounds commit.
func (f *Federation) syncMirrors() {
	f.Global = f.Engine.Global()
	f.Rounds = f.Engine.Round()
	f.Reports = f.Engine.Reports()
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
		TrainClients(f.Clients, rem, f.Parallel)
	}
	return nil
}

// AddClient joins a new client mid-training (the Figure-20 scenario),
// initializing it under the engine's late-join policy — the same rule a
// fednet joiner or resyncing straggler gets: the current global payload.
func (f *Federation) AddClient(c *Client) error {
	_, global := f.Engine.Join(len(f.Clients))
	if err := f.Transport.Download(c, global); err != nil {
		return fmt.Errorf("fed: joining client %d: %w", c.ID, err)
	}
	f.addSlot(c)
	return nil
}

// addSlot appends client c and its per-client state. Its installs so far
// were out-of-band raw payloads (the constructor's initial sync, a join —
// matching the networked path's JoinReply), so it starts with a fresh client
// end: its first uplink is absolute.
func (f *Federation) addSlot(c *Client) {
	f.all = append(f.all, len(f.Clients))
	f.Clients = append(f.Clients, c)
	f.ends = append(f.ends, fedcore.NewWireClient(f.wire.Codec()))
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
