// Package fedcore is the transport-agnostic federated round engine: the
// control plane of Algorithm 1, shared by the in-process federation
// (internal/fed) and the networked one (internal/fednet).
//
// The engine owns every piece of round *policy* — seeded K-of-N participant
// selection, the participation-weighted partial-aggregation rule, corrupt
// upload filtering, round/report bookkeeping, the late-join/resync payload
// rule, and the per-round observability — while the adapters own the *data
// plane*: how payloads actually reach clients (direct method calls for fed,
// a net/rpc barrier for fednet). Because both paths drive the same engine
// with the same seed, an in-process run and a loopback networked run are
// bit-identical, which the cross-path equivalence golden test pins.
//
// A round, from the engine's point of view:
//
//  1. Select draws the round's participants from the candidate ids using
//     the engine's seeded RNG (stable identity order at full participation,
//     so per-client aggregators map rows to clients).
//  2. The adapter collects uploads however its transport works — the
//     in-process federation pulls from the selected clients, the networked
//     server already holds the arrivals' pushes.
//  3. CompleteRound filters corrupt-length uploads, aggregates the rest
//     under the partial-participation policy, installs the new global
//     payload, and hands the personalized payloads to the adapter's
//     delivery callback before committing the round report.
package fedcore

import (
	"errors"
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

// AggregatePartial runs one aggregation over however many uploads arrived
// (the partial-participation regime: k of n clients answered before the
// round deadline). Each arrival carries equal weight, so the result is the
// participation-weighted mean — exactly agg.Aggregate over the k uploads.
// The degenerate round where nobody arrived is well-defined too: no
// personalized payloads, and the global payload carries over unchanged.
//
// This is the single implementation of the policy; fed.AggregatePartial is
// a thin delegate kept for call-site convenience.
func AggregatePartial(agg Aggregator, uploads []Payload, prevGlobal Payload) (personalized []Payload, global Payload) {
	if len(uploads) == 0 {
		return nil, append(Payload(nil), prevGlobal...)
	}
	return agg.Aggregate(uploads)
}

// AggregatePartialInto is AggregatePartial over arena buffers: the pooled
// data plane the engine (and the aggregation benchmarks) run. Zero uploads
// return prevGlobal itself as the carried-over global — the caller copies
// or already owns it. Aggregators without the pooled fast path fall back to
// the allocating Aggregate.
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

// RoundReport records who actually contributed to one aggregation round.
// Both federation paths produce it; the fields split into shared policy
// outcomes and transport-shaped observations:
//
//   - Selected/Participants/UploadDrops/DownloadDrops are path-independent
//     for a fault-free full barrier.
//   - Expected/Arrived read differently per transport: the in-process
//     federation pulls uploads only from the Selected clients (so Arrived ≤
//     Selected), while the networked server selects from whoever pushed
//     before the barrier closed (so Selected ≤ Arrived).
//   - TimedOut marks rounds closed by a deadline rather than a full
//     barrier; the in-process path has no deadline and never sets it.
type RoundReport struct {
	// Round is the round index (0-based).
	Round int
	// Expected is how many clients the round could have drawn from (N).
	Expected int
	// Selected is how many clients were drawn for the round (K).
	Selected int
	// Arrived is how many uploads reached the aggregation step, including
	// corrupt-length ones the engine then filtered.
	Arrived int
	// Participants is how many uploads were actually aggregated.
	Participants int
	// UploadDrops counts uploads lost to transient transport faults or
	// corrupt lengths; a dropped upload leaves that client out of the round.
	UploadDrops int
	// DownloadDrops counts deliveries lost to transient transport faults; a
	// dropped download leaves that client on its previous parameters.
	DownloadDrops int
	// StaleDrops counts async submissions dropped for exceeding the
	// staleness bound since the previous commit. Always zero on sync rounds.
	StaleDrops int
	// DupDrops counts async submissions dropped as (client, seq) duplicates
	// since the previous commit. Always zero on sync rounds.
	DupDrops int
	// TimedOut marks rounds closed by a deadline instead of a full barrier.
	TimedOut bool
}

// RoundStats carries the adapter-observed facts about one round into
// CompleteRound: barrier shape, selection size, and data-plane upload drops
// the adapter absorbed before the engine saw the contributions.
type RoundStats struct {
	Expected    int
	Selected    int
	Arrived     int
	UploadDrops int
	StaleDrops  int
	DupDrops    int
	TimedOut    bool
}

// Contribution is one client's upload, tagged with its id so personalized
// payloads can be routed back.
type Contribution struct {
	ID     int
	Upload Payload
}

// Delivery distributes one round's results: personalized payloads keyed by
// client id for the participants, the new global payload for everyone else.
// It returns the download drops it absorbed and the wall-clock spent in
// transport calls (both folded into the round report and phase timers).
// The callback runs while the engine holds its round lock, so it must not
// call back into the engine. The map and the personalized payloads it
// carries are engine-owned scratch reused next round: deliver must install
// or copy them before returning, never retain them.
type Delivery func(personalized map[int]Payload, global Payload) (downloadDrops int, comm time.Duration)

// Options configures New.
type Options struct {
	// K is the number of participants aggregated per round; <=0 or >Clients
	// means full participation.
	K int
	// Clients is N, the federation size K is resolved against.
	Clients int
	// Seed drives participant selection.
	Seed int64
}

// Engine is the federated round state machine. One engine instance backs
// one federation (in-process or networked); all methods are safe for
// concurrent use.
type Engine struct {
	mu      sync.Mutex
	k       int
	agg     Aggregator
	rng     *rand.Rand
	global  Payload
	round   int
	reports []RoundReport

	// Pooled round scratch: the aggregation arena plus the contribution
	// filtering and routing buffers, all reused across rounds so the
	// steady-state data plane allocates nothing.
	arena      PayloadArena
	scrUploads []Payload
	scrIDs     []int
	scrByID    map[int]Payload
}

// New builds an engine holding ψ_G^(0) = initial, with K resolved against
// opts.Clients.
func New(agg Aggregator, initial Payload, opts Options) (*Engine, error) {
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
	return &Engine{
		k:      k,
		agg:    agg,
		rng:    rand.New(rand.NewSource(opts.Seed)),
		global: append(Payload(nil), initial...),
	}, nil
}

// K returns the resolved per-round participation.
func (e *Engine) K() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.k
}

// Round returns the number of completed aggregation rounds.
func (e *Engine) Round() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.round
}

// Global returns a copy of the stored global payload.
func (e *Engine) Global() Payload {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append(Payload(nil), e.global...)
}

// PayloadLen returns the expected upload length (the global payload's).
func (e *Engine) PayloadLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.global)
}

// Reports returns a copy of the per-round participation records.
func (e *Engine) Reports() []RoundReport {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]RoundReport(nil), e.reports...)
}

// Join is the single late-join/resync policy shared by every path: a fresh
// joiner (fed.AddClient, fednet Join), a restarted client reclaiming its
// slot, and a straggler resyncing via State all receive the current round
// index and a copy of the stored global payload.
func (e *Engine) Join() (round int, global Payload) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.round, append(Payload(nil), e.global...)
}

// Select draws the round's K participants from the candidate ids. Full
// participation (K >= len(candidates)) keeps the candidates' stable order,
// so aggregators with per-client semantics (StaticWeights) map rows to
// clients; otherwise a seeded permutation picks K without replacement, in
// permutation order. The RNG is consumed only on the partial path, so the
// selection stream is identical whether candidates are all N clients (the
// in-process pull) or the barrier's arrivals (the networked push) whenever
// everyone shows up.
func (e *Engine) Select(candidates []int) []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.k >= len(candidates) {
		return append([]int(nil), candidates...)
	}
	idx := e.rng.Perm(len(candidates))[:e.k]
	out := make([]int, len(idx))
	for i, j := range idx {
		out[i] = candidates[j]
	}
	return out
}

// CompleteRound closes one round: corrupt-length uploads are filtered into
// the drop count (detectable, so the round survives them), the survivors
// are aggregated under the partial-participation policy, the new global
// payload is installed, the adapter's deliver callback distributes the
// results, and the report is committed. Uploads are aggregated in
// contribution order, which the adapters keep deterministic (selection
// order in-process, ascending client id at the networked barrier).
//
// The round counter advances even for a degenerate round (zero
// participants keep the global payload unchanged), matching the
// partial-participation regime where a round that nobody reached still
// happened.
func (e *Engine) CompleteRound(contribs []Contribution, stats RoundStats, deliver Delivery) RoundReport {
	e.mu.Lock()
	defer e.mu.Unlock()

	expect := len(e.global)
	uploads := e.scrUploads[:0]
	ids := e.scrIDs[:0]
	uploadDrops := stats.UploadDrops
	for _, c := range contribs {
		if len(c.Upload) != expect {
			uploadDrops++
			continue
		}
		uploads = append(uploads, c.Upload)
		ids = append(ids, c.ID)
	}
	e.scrUploads, e.scrIDs = uploads, ids

	aggStart := time.Now()
	personalized, global := AggregatePartialInto(e.agg, uploads, e.global, &e.arena)
	aggDur := time.Since(aggStart)
	// The aggregator's output lives in arena buffers reused next round, so
	// the stored global is copied into the engine-owned mirror.
	if len(global) == 0 {
		e.global = e.global[:0]
	} else if len(e.global) == 0 || &global[0] != &e.global[0] {
		if cap(e.global) < len(global) {
			e.global = make(Payload, len(global))
		}
		e.global = e.global[:len(global)]
		copy(e.global, global)
	}

	report := RoundReport{
		Round:        e.round,
		Expected:     stats.Expected,
		Selected:     stats.Selected,
		Arrived:      stats.Arrived,
		Participants: len(uploads),
		UploadDrops:  uploadDrops,
		StaleDrops:   stats.StaleDrops,
		DupDrops:     stats.DupDrops,
		TimedOut:     stats.TimedOut,
	}
	e.round++

	if e.scrByID == nil {
		e.scrByID = make(map[int]Payload, len(ids))
	}
	clear(e.scrByID)
	byID := e.scrByID
	for i, id := range ids {
		byID[id] = personalized[i]
	}
	var commDur time.Duration
	if deliver != nil {
		report.DownloadDrops, commDur = deliver(byID, e.global)
	}
	e.reports = append(e.reports, report)

	obs.GlobalTimers().Add(obs.PhaseAggregate, aggDur)
	obs.GlobalTimers().Add(obs.PhaseComm, commDur)
	mRounds.Inc()
	mUploadDrops.Add(uint64(report.UploadDrops))
	mDownloadDrops.Add(uint64(report.DownloadDrops))
	gParticipants.Set(float64(report.Participants))
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
