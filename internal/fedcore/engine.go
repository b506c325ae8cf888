// Package fedcore is the transport-agnostic federated round engine: the one
// implementation of Algorithm 1's server side, shared by the in-process
// federation (internal/fed) and the networked one (internal/fednet).
//
// There is one engine type, AsyncEngine, and one round lifecycle:
//
//	accept → buffer → trigger{B arrivals | barrier close | flush} → commit → deliver
//
// Each stage has exactly one implementation:
//
//   - Submit is the only accept point. It dedupes on (client, seq), rejects
//     wrong-length and non-finite payloads without consuming the seq, gates
//     on staleness, pre-mixes stale deltas toward the current global, and
//     copies the survivor into a pooled buffer.
//   - A commit fires on one of three triggers: the buffer reaching B accepted
//     arrivals (inside Submit — buffered asynchronous aggregation), the
//     adapter closing the round barrier (CloseRound — the synchronous
//     regime, AsyncOptions.Barrier), or a shutdown Flush of a partial buffer.
//   - commitLocked is the only commit step: a seeded K-draw over the buffered
//     arrivals, the participation-weighted partial aggregation, the new
//     global, the report, the metrics.
//   - The Delivery callback hands the personalized payloads (participants)
//     and the new global (everyone else) to the adapter, which owns how they
//     reach clients and whether they are retained — the engine keeps no
//     per-adapter state.
//   - Payloads reach Submit and leave Delivery through the wire session
//     (wire.go): WireServer and WireClient are the only code that frames,
//     keeps delta references or counts traffic.
//
// Because both adapters drive the same engine with the same seed, an
// in-process run and a loopback networked run are bit-identical (the
// cross-path golden), and because the two commit triggers share every step
// before and after the trigger itself, a buffer of K fresh arrivals commits
// exactly what a barrier over the same K arrivals does (the
// async-degradation goldens).
//
// Staleness. A client reports the base round whose global it last installed;
// τ = currentRound − base. A delta with τ over the bound is dropped into the
// round report (StaleDrops). An accepted delta with τ > 0 is pre-mixed
// toward the current global with weight w(τ) = 1/(1+τ):
//
//	ũ = w·u + (1−w)·ψ_G
//
// At τ = 0 the blend is skipped entirely (not multiplied by w = 1), so fresh
// submissions carry their exact bits. Under the barrier trigger every
// arrival belongs to the round being closed and is fresh by construction: a
// client whose last download was lost still counts at full weight.
package fedcore

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
)

// Payload is a flat parameter vector exchanged between client and server.
type Payload = []float64

// Aggregator combines the participating clients' uploads. Aggregate returns
// one personalized payload per upload (same order) plus the new global
// payload stored for non-participants and late joiners. internal/fed's
// aggregators (FedAvg, MFPO momentum, attention, ...) satisfy it directly.
type Aggregator interface {
	Name() string
	Aggregate(uploads []Payload) (personalized []Payload, global Payload)
}

// IntoAggregator is the pooled form the engine runs: AggregateInto places
// its result in caller-owned arena buffers, so a steady-state round
// allocates nothing. The returned slices are valid only until the arena's
// next use; callers that retain them must copy. internal/fed's FedAvg,
// Momentum, Attention and StaticWeights implement their rule here and get
// Aggregate from AggregateOwned; the engine falls back to Aggregate for
// aggregators without it (SecureFedAvg, test fakes).
type IntoAggregator interface {
	Aggregator
	AggregateInto(uploads []Payload, arena *PayloadArena) (personalized []Payload, global Payload)
}

// AggregateOwned is the one implementation of Aggregate for aggregators
// whose rule lives in AggregateInto: it runs the rule on a throwaway arena
// and returns copies the caller owns — every payload has its own backing
// array, aliasing neither the others nor the aggregator's state.
func AggregateOwned(agg IntoAggregator, uploads []Payload) (personalized []Payload, global Payload) {
	if len(uploads) == 0 {
		panic("fedcore: aggregate of zero uploads")
	}
	var arena PayloadArena
	views, g := agg.AggregateInto(uploads, &arena)
	personalized = make([]Payload, len(views))
	for i, v := range views {
		personalized[i] = append(Payload(nil), v...)
	}
	return personalized, append(Payload(nil), g...)
}

// AggregatePartialInto runs one aggregation over however many uploads
// arrived (the partial-participation regime: k of n clients answered before
// the round closed), in arena buffers. Each arrival carries equal weight, so
// the result is the participation-weighted mean — exactly the aggregator's
// rule over the k uploads. Zero uploads return prevGlobal itself as the
// carried-over global — the caller copies or already owns it. Aggregators
// without the pooled fast path fall back to the allocating Aggregate.
func AggregatePartialInto(agg Aggregator, uploads []Payload, prevGlobal Payload, arena *PayloadArena) (personalized []Payload, global Payload) {
	if len(uploads) == 0 {
		return nil, prevGlobal
	}
	if into, ok := agg.(IntoAggregator); ok {
		return into.AggregateInto(uploads, arena)
	}
	return agg.Aggregate(uploads)
}

// DefaultK returns the paper's default participation for an n-client
// federation: K = max(1, N/2), the PFRL-DM setting (§5.1).
func DefaultK(n int) int {
	if n/2 < 1 {
		return 1
	}
	return n / 2
}

// RoundReport records one commit: who was drawn, who arrived, who was
// aggregated, and what the window since the previous commit dropped.
type RoundReport struct {
	// Round is the round index (0-based).
	Round int
	// Expected is N, the federation size: the constructor's Clients, grown
	// by every Join of a client id beyond it (fed.AddClient).
	Expected int
	// Selected is how many clients were drawn for the round. Under the
	// barrier trigger it is the adapter's pull-side draw (Select) when it
	// made one — K even if some of the drawn never arrive — and otherwise,
	// as under the buffer trigger, the commit-time draw over the arrivals.
	Selected int
	// Arrived is how many uploads reached the engine in the window. Under
	// the barrier trigger it includes the corrupt ones Submit rejected; under
	// the buffer trigger it is the accepted arrivals the commit drew from.
	Arrived int
	// Participants is how many uploads were actually aggregated.
	Participants int
	// UploadDrops counts uploads lost in the window: transport faults the
	// adapter absorbed (AbsorbUploadDrops) plus wrong-length and non-finite
	// payloads rejected by Submit. A dropped upload leaves that client out
	// of the round.
	UploadDrops int
	// DownloadDrops counts deliveries the Delivery callback reported lost; a
	// dropped download leaves that client on its previous parameters.
	DownloadDrops int
	// StaleDrops counts submissions dropped in the window for exceeding the
	// staleness bound. Always zero under the barrier trigger.
	StaleDrops int
	// DupDrops counts submissions dropped in the window as (client, seq)
	// duplicates. Always zero under the barrier trigger, whose adapters never
	// resubmit a seq.
	DupDrops int
	// TimedOut marks barrier rounds closed by a deadline instead of a full
	// barrier; only the networked adapter has one.
	TimedOut bool
}

// Delivery distributes one commit's results: personalized payloads keyed by
// client id for the participants, the new global payload for everyone else.
// It returns the download drops it absorbed and the wall-clock spent in
// transport calls (both folded into the round report and phase timers).
// The callback runs while the engine holds its lock, so it must not call
// back into the engine. The map and the payloads it carries are engine-owned
// scratch reused next commit: deliver must install or copy them before
// returning, never retain them.
type Delivery func(personalized map[int]Payload, global Payload) (downloadDrops int, comm time.Duration)

// Options is the selection policy every regime shares.
type Options struct {
	// K is the number of participants aggregated per round; <=0 or >Clients
	// means full participation.
	K int
	// Clients is N, the federation size K is resolved against.
	Clients int
	// Seed drives participant selection.
	Seed int64
}

// AsyncOptions configures NewAsync.
type AsyncOptions struct {
	Options
	// StalenessBound is the maximum staleness (in rounds) a submission may
	// carry and still be mixed; anything staler is dropped into the round
	// report. Negative means unbounded. Zero accepts only fresh deltas.
	// Unused under Barrier, where every arrival is fresh by construction.
	StalenessBound int
	// Buffer is B, the number of accepted arrivals that triggers a commit.
	// <= 0 resolves to the engine's K. Unused under Barrier.
	Buffer int
	// Barrier selects the commit trigger: false commits every Buffer
	// accepted arrivals (inside Submit), true commits only when the adapter
	// closes the round (CloseRound) — the synchronous regime.
	Barrier bool
}

// SubmitStatus classifies the outcome of one Submit.
type SubmitStatus int

const (
	// SubmitAccepted: the delta was staleness-weighted and buffered (and
	// possibly committed, see SubmitResult.Committed).
	SubmitAccepted SubmitStatus = iota
	// SubmitDuplicate: a delta with this (client, seq) was already consumed —
	// a retransmit after a lost ACK. Dropped without touching the buffer.
	SubmitDuplicate
	// SubmitStale: the delta exceeded the staleness bound and was dropped
	// into the round report.
	SubmitStale
	// SubmitNonFinite: the payload carried a NaN or ±Inf and was rejected
	// with ErrBadUpload, seq not consumed.
	SubmitNonFinite
)

func (s SubmitStatus) String() string {
	if names := [...]string{"accepted", "duplicate", "stale", "nonfinite"}; s >= 0 && int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("SubmitStatus(%d)", int(s))
}

// SubmitResult reports what one submission did.
type SubmitResult struct {
	Status    SubmitStatus
	Staleness int
	// Round is the engine round after this submission — post-commit when
	// the submission triggered one. Clients adopt it as their next base.
	Round int
	// Committed is the report of the commit this submission triggered, nil
	// otherwise.
	Committed *RoundReport
}

type arrival struct {
	id     int
	upload Payload
}

// AsyncEngine is the federated round state machine. One instance backs one
// federation (in-process or networked, barrier or buffered); all methods are
// safe for concurrent use under its single lock.
type AsyncEngine struct {
	deliver Delivery

	mu      sync.Mutex
	agg     Aggregator
	rng     *rand.Rand
	k       int
	bound   int
	buffer  int
	barrier bool

	global   Payload
	round    int
	reports  []RoundReport
	expected int

	buf     []arrival
	lastSeq map[int]int
	// Window counters folded into the next commit's report, then reset:
	// drops by cause — stale, duplicate, absorbed by the adapter's transport,
	// rejected by Submit (wrong length or non-finite) — and the size of the
	// adapter's pull-side draw.
	staleDrops int
	dupDrops   int
	absorbed   int
	rejected   int
	drawn      int

	// Pooled scratch, reused across commits so a steady-state round
	// allocates nothing: the aggregation arena, one staging buffer per
	// buffered arrival (recycled when the buffer drains), and the commit's
	// candidate / upload / routing staging.
	arena      PayloadArena
	mixPool    []Payload
	mixUsed    int
	scrCand    []int
	scrUploads []Payload
	scrByID    map[int]Payload
}

// NewAsync builds an engine holding ψ_G^(0) = initial, with K resolved
// against opts.Clients. The deliver callback (may be nil) runs at every
// commit under the engine lock — it must not call back into the engine.
func NewAsync(agg Aggregator, initial Payload, opts AsyncOptions, deliver Delivery) (*AsyncEngine, error) {
	if agg == nil {
		return nil, errors.New("fedcore: engine needs an aggregator")
	}
	if len(initial) == 0 {
		return nil, errors.New("fedcore: engine needs an initial global payload")
	}
	if opts.Clients < 1 {
		return nil, errors.New("fedcore: engine needs at least one client")
	}
	k := opts.K
	if k <= 0 || k > opts.Clients {
		k = opts.Clients
	}
	buffer := opts.Buffer
	if buffer <= 0 {
		buffer = k
	}
	return &AsyncEngine{
		deliver:  deliver,
		agg:      agg,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		k:        k,
		bound:    opts.StalenessBound,
		buffer:   buffer,
		barrier:  opts.Barrier,
		global:   append(Payload(nil), initial...),
		expected: opts.Clients,
		lastSeq:  make(map[int]int),
		scrByID:  make(map[int]Payload),
	}, nil
}

// Engine returns the engine itself, for callers that read its state as
// a.Engine().Round() (the frozen benchmark probe does).
func (a *AsyncEngine) Engine() *AsyncEngine { return a }

// K returns the resolved per-round participation.
func (a *AsyncEngine) K() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.k
}

// Round returns the number of completed aggregation rounds.
func (a *AsyncEngine) Round() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.round
}

// Headroom returns how many more accepted arrivals the buffer trigger takes
// before it commits: B minus the arrivals held. Every submission adds at most
// one, so the next Headroom()-1 of them cannot commit a round.
func (a *AsyncEngine) Headroom() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.buffer - len(a.buf)
}

// Global returns a copy of the stored global payload.
func (a *AsyncEngine) Global() Payload {
	_, global := a.State()
	return global
}

// GlobalView returns the stored global payload itself, not a copy. It is
// read-only and valid until the next commit rewrites it in place, so only an
// adapter that holds the lock its commits run under may use it — fednet's
// Server frames its replies from it under Server.mu; everyone else takes
// Global's copy.
func (a *AsyncEngine) GlobalView() Payload {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.global
}

// PayloadLen returns the expected upload length (the global payload's).
func (a *AsyncEngine) PayloadLen() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.global)
}

// Reports returns a copy of the per-round participation records.
func (a *AsyncEngine) Reports() []RoundReport {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]RoundReport(nil), a.reports...)
}

// State is the single out-of-band install rule: a fresh joiner, a restarted
// client reclaiming its slot and a straggler resyncing all receive the
// current round index and a copy of the stored global payload, read together.
func (a *AsyncEngine) State() (round int, global Payload) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.round, append(Payload(nil), a.global...)
}

// Join admits clientID — fed.AddClient, a fednet Join or rejoin — under the
// State rule. It clears the slot's dedup state, so a restarted client reusing
// its id is not blocked by the sequence numbers of its previous life, and
// grows Expected when the id lies beyond the federation the engine was built
// for.
func (a *AsyncEngine) Join(clientID int) (round int, global Payload) {
	a.mu.Lock()
	delete(a.lastSeq, clientID)
	if clientID >= a.expected {
		a.expected = clientID + 1
	}
	a.mu.Unlock()
	return a.State()
}

// Select is the pull-side draw: an adapter that asks clients for uploads
// (rather than receiving pushes) calls it once per round to learn whom to
// ask. Full participation (K >= len(candidates)) keeps the candidates' order,
// so aggregators with per-client semantics (StaticWeights) map rows to
// clients; otherwise a seeded permutation picks K without replacement, in
// permutation order. The RNG is consumed only on the partial path — and the
// commit-time draw over at most K pulled arrivals never is — so the selection
// stream is identical whether a round draws from all N clients up front (the
// in-process pull) or from the barrier's arrivals at commit (the networked
// push) whenever everyone shows up. The returned slice is the caller's.
func (a *AsyncEngine) Select(candidates []int) []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := a.drawLocked(append([]int(nil), candidates...))
	a.drawn = len(out)
	return out
}

// drawLocked picks K of the candidates: the candidates themselves when K
// covers them, a seeded permutation's first K otherwise. Caller holds a.mu.
func (a *AsyncEngine) drawLocked(candidates []int) []int {
	if a.k >= len(candidates) {
		return candidates
	}
	out := make([]int, a.k)
	for i, j := range a.rng.Perm(len(candidates))[:a.k] {
		out[i] = candidates[j]
	}
	return out
}

// AbsorbUploadDrops folds adapter-observed transport upload drops — uploads
// that never reached Submit — into the next commit's report.
func (a *AsyncEngine) AbsorbUploadDrops(n int) {
	a.mu.Lock()
	a.absorbed += n
	a.mu.Unlock()
}

// ErrBadUpload rejects a submission whose payload has the wrong length or
// carries a non-finite value. The submission is not consumed: a retry with a
// well-formed payload and the same seq will succeed.
var ErrBadUpload = errors.New("fedcore: bad upload")

// stage hands out one pooled staging buffer of n scalars; buffers stay
// checked out until the next commit drains the arrival buffer. Caller holds
// a.mu.
func (a *AsyncEngine) stage(n int) Payload {
	if a.mixUsed == len(a.mixPool) {
		a.mixPool = append(a.mixPool, make(Payload, n))
	}
	b := a.mixPool[a.mixUsed]
	if cap(b) < n {
		b = make(Payload, n)
		a.mixPool[a.mixUsed] = b
	}
	a.mixUsed++
	return b[:n]
}

// Submit applies one client upload — the engine's only accept point. seq is
// the client's monotone submission counter (dedup key — retransmits carry
// the same seq); base is the engine round whose global the client last
// installed (staleness anchor, ignored under the barrier trigger). Under the
// buffer trigger a commit fires inside Submit when the buffer reaches B
// accepted arrivals. Submit never retains the caller's slice.
func (a *AsyncEngine) Submit(clientID, seq, base int, upload Payload) (SubmitResult, error) {
	a.mu.Lock()
	defer a.mu.Unlock()

	staleness := 0
	if !a.barrier && a.round > base {
		staleness = a.round - base
	}
	res := SubmitResult{Staleness: staleness, Round: a.round}

	if last, ok := a.lastSeq[clientID]; ok && seq <= last {
		a.dupDrops++
		mDupDrops.Inc()
		res.Status = SubmitDuplicate
		a.emitDelta(clientID, res)
		return res, nil
	}
	if len(upload) != len(a.global) {
		// Not consumed: lastSeq is untouched so a rebuilt retry passes.
		a.rejected++
		return res, ErrBadUpload
	}
	if a.bound >= 0 && staleness > a.bound {
		a.staleDrops++
		a.lastSeq[clientID] = seq
		mStaleDrops.Inc()
		hStaleness.Observe(float64(staleness))
		res.Status = SubmitStale
		a.emitDelta(clientID, res)
		return res, nil
	}

	// One pass stages the arrival into a pooled buffer — pre-mixed toward
	// the global when stale, verbatim when fresh — and checks it is finite:
	// u−u is 0 for every finite u (−0 and subnormals included) and NaN for
	// NaN and ±Inf, so the sum is non-zero exactly when one slipped in.
	staged := a.stage(len(upload))
	var poison float64
	if staleness > 0 {
		w := 1.0 / (1.0 + float64(staleness))
		for i, u := range upload {
			staged[i] = w*u + (1-w)*a.global[i]
			poison += u - u
		}
	} else {
		for i, u := range upload {
			staged[i] = u
			poison += u - u
		}
	}
	if poison != 0 {
		// Same contract as a bad length: counted, seq not consumed.
		a.mixUsed--
		a.rejected++
		mNonFiniteDrops.Inc()
		res.Status = SubmitNonFinite
		a.emitDelta(clientID, res)
		return res, ErrBadUpload
	}
	a.lastSeq[clientID] = seq
	hStaleness.Observe(float64(staleness))
	a.buf = append(a.buf, arrival{id: clientID, upload: staged})
	gBufferFill.Set(float64(len(a.buf)))
	res.Status = SubmitAccepted
	a.emitDelta(clientID, res)

	if !a.barrier && len(a.buf) >= a.buffer {
		report := a.commitLocked(false)
		res.Committed = &report
		res.Round = a.round
	}
	return res, nil
}

// CloseRound is the barrier trigger: it commits whatever the round buffered
// — including nothing, the degenerate round that carries the global over and
// still advances the counter — and marks the report TimedOut when a deadline
// rather than a full barrier closed it. An engine built without
// AsyncOptions.Barrier has no barrier to close and returns ok=false.
func (a *AsyncEngine) CloseRound(timedOut bool) (report RoundReport, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.barrier {
		return RoundReport{}, false
	}
	return a.commitLocked(timedOut), true
}

// Flush force-commits a partially filled buffer (end of training / shutdown)
// so trailing deltas are not lost. Returns the report, or ok=false when the
// buffer was empty — always, right after a CloseRound.
func (a *AsyncEngine) Flush() (report RoundReport, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.buf) == 0 {
		return RoundReport{}, false
	}
	return a.commitLocked(false), true
}

// commitLocked is the one commit step, whatever triggered it: the
// commit-time draw picks the participants from the buffered arrivals
// (identity order — and no RNG consumed — when K covers the buffer), their
// uploads are aggregated under the partial-participation policy in draw
// order, the new global is installed, the adapter's deliver callback
// distributes the results, and the report — with the window's drop counters
// folded in — is committed. Caller holds a.mu.
func (a *AsyncEngine) commitLocked(timedOut bool) RoundReport {
	candidates := a.scrCand[:0]
	byID := a.scrByID
	clear(byID)
	for _, arr := range a.buf {
		candidates = append(candidates, arr.id)
		byID[arr.id] = arr.upload
	}
	a.scrCand = candidates
	participants := a.drawLocked(candidates)
	uploads := a.scrUploads[:0]
	for _, id := range participants {
		uploads = append(uploads, byID[id])
	}
	a.scrUploads = uploads

	aggStart := time.Now()
	personalized, global := AggregatePartialInto(a.agg, uploads, a.global, &a.arena)
	aggDur := time.Since(aggStart)
	// The aggregator's output lives in arena buffers reused next commit, so
	// the stored global is copied into the engine-owned mirror (unless it is
	// the mirror: the zero-participant carry-over).
	if len(global) != len(a.global) || &global[0] != &a.global[0] {
		a.global = append(a.global[:0], global...)
	}

	report := RoundReport{
		Round:        a.round,
		Expected:     a.expected,
		Selected:     len(participants),
		Arrived:      len(a.buf),
		Participants: len(uploads),
		UploadDrops:  a.absorbed + a.rejected,
		StaleDrops:   a.staleDrops,
		DupDrops:     a.dupDrops,
		TimedOut:     timedOut,
	}
	if a.barrier {
		// A barrier window is one round: it reports whom the adapter asked
		// and everything that came back, rejected uploads included.
		if a.drawn > 0 {
			report.Selected = a.drawn
		}
		report.Arrived += a.rejected
	}
	a.round++

	clear(byID)
	for i, id := range participants {
		byID[id] = personalized[i]
	}
	var commDur time.Duration
	if a.deliver != nil {
		report.DownloadDrops, commDur = a.deliver(byID, a.global)
	}
	a.reports = append(a.reports, report)

	a.buf = a.buf[:0]
	a.mixUsed = 0
	a.staleDrops, a.dupDrops, a.absorbed, a.rejected, a.drawn = 0, 0, 0, 0, 0

	obs.GlobalTimers().Add(obs.PhaseAggregate, aggDur)
	obs.GlobalTimers().Add(obs.PhaseComm, commDur)
	mRounds.Inc()
	if !a.barrier {
		mAsyncCommits.Inc()
	}
	mUploadDrops.Add(uint64(report.UploadDrops))
	mDownloadDrops.Add(uint64(report.DownloadDrops))
	gParticipants.Set(float64(report.Participants))
	gBufferFill.Set(0)
	hAggregate.Observe(aggDur.Seconds())
	if obs.Active() {
		ev := obs.E("round").At(-1, report.Round, -1).
			F("expected", float64(report.Expected)).
			F("selected", float64(report.Selected)).
			F("arrived", float64(report.Arrived)).
			F("participants", float64(report.Participants)).
			F("upload_drops", float64(report.UploadDrops)).
			F("download_drops", float64(report.DownloadDrops)).
			F("stale_drops", float64(report.StaleDrops)).
			F("dup_drops", float64(report.DupDrops)).
			F("aggregate_seconds", aggDur.Seconds()).
			F("comm_seconds", commDur.Seconds())
		if report.TimedOut {
			ev.F("timed_out", 1)
		}
		obs.Emit(ev)
	}
	return report
}

func (a *AsyncEngine) emitDelta(clientID int, res SubmitResult) {
	if !obs.Active() {
		return
	}
	obs.Emit(obs.E("delta").At(clientID, res.Round, -1).
		F("staleness", float64(res.Staleness)).
		F("buffer_fill", float64(len(a.buf))).
		S("status", res.Status.String()))
}
