package fedcore

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

// meanAgg is a minimal FedAvg-style aggregator for engine tests (the real
// strategies live in internal/fed, which imports this package).
type meanAgg struct{}

func (meanAgg) Name() string { return "mean" }

func (meanAgg) Aggregate(uploads []Payload) ([]Payload, Payload) {
	dim := len(uploads[0])
	global := make(Payload, dim)
	for _, u := range uploads {
		for j, v := range u {
			global[j] += v
		}
	}
	inv := 1.0 / float64(len(uploads))
	for j := range global {
		global[j] *= inv
	}
	personalized := make([]Payload, len(uploads))
	for i := range personalized {
		personalized[i] = append(Payload(nil), global...)
	}
	return personalized, global
}

// mustEngine builds a barrier-trigger engine over meanAgg.
func mustEngine(t *testing.T, k, clients int, seed int64, initial Payload, deliver Delivery) *AsyncEngine {
	t.Helper()
	return mustAsync(t, AsyncOptions{Options: Options{K: k, Clients: clients, Seed: seed}, Barrier: true}, initial, deliver)
}

func TestNewValidation(t *testing.T) {
	if _, err := NewAsync(nil, Payload{1}, AsyncOptions{Options: Options{Clients: 2}}, nil); err == nil {
		t.Fatal("nil aggregator should fail")
	}
	if _, err := NewAsync(meanAgg{}, nil, AsyncOptions{Options: Options{Clients: 2}}, nil); err == nil {
		t.Fatal("empty initial payload should fail")
	}
	if _, err := NewAsync(meanAgg{}, Payload{1}, AsyncOptions{Options: Options{Clients: 0}}, nil); err == nil {
		t.Fatal("zero clients should fail")
	}
}

func TestKResolution(t *testing.T) {
	cases := []struct{ k, clients, want int }{
		{0, 4, 4},  // unset -> full participation
		{-3, 4, 4}, // negative -> full participation
		{9, 4, 4},  // oversized -> clamped to N
		{2, 4, 2},  // in range -> kept
		{1, 1, 1},  // singleton federation
	}
	for _, c := range cases {
		e := mustEngine(t, c.k, c.clients, 1, Payload{0}, nil)
		if e.K() != c.want {
			t.Fatalf("K=%d N=%d: resolved %d, want %d", c.k, c.clients, e.K(), c.want)
		}
	}
}

func TestDefaultK(t *testing.T) {
	for _, c := range []struct{ n, want int }{{1, 1}, {2, 1}, {3, 1}, {4, 2}, {8, 4}} {
		if got := DefaultK(c.n); got != c.want {
			t.Fatalf("DefaultK(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestSelectFullParticipationKeepsOrder(t *testing.T) {
	e := mustEngine(t, 4, 4, 7, Payload{0}, nil)
	cands := []int{3, 0, 2, 1}
	got := e.Select(cands)
	for i, v := range got {
		if v != cands[i] {
			t.Fatalf("full participation must keep candidate order: %v", got)
		}
	}
	// Fewer candidates than K clamps to the candidates, still in order.
	got = e.Select([]int{5, 4})
	if len(got) != 2 || got[0] != 5 || got[1] != 4 {
		t.Fatalf("clamped selection %v", got)
	}
}

func TestSelectSeededAndDistinct(t *testing.T) {
	a := mustEngine(t, 2, 5, 11, Payload{0}, nil)
	b := mustEngine(t, 2, 5, 11, Payload{0}, nil)
	cands := []int{0, 1, 2, 3, 4}
	for round := 0; round < 8; round++ {
		sa, sb := a.Select(cands), b.Select(cands)
		if len(sa) != 2 || len(sb) != 2 {
			t.Fatalf("round %d: sizes %d/%d", round, len(sa), len(sb))
		}
		seen := map[int]bool{}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("round %d: same seed diverged: %v vs %v", round, sa, sb)
			}
			if sa[i] < 0 || sa[i] > 4 || seen[sa[i]] {
				t.Fatalf("round %d: bad selection %v", round, sa)
			}
			seen[sa[i]] = true
		}
	}
}

// The three CompleteRound tests drive a barrier round — Submit per arrival,
// then CloseRound — and keep their names so the suite's ids stay stable.

func TestCompleteRoundAggregatesAndDelivers(t *testing.T) {
	var gotPersonalized map[int]Payload
	var gotGlobal Payload
	e := mustEngine(t, 2, 3, 1, Payload{0, 0}, func(personalized map[int]Payload, global Payload) (int, time.Duration) {
		gotPersonalized = personalized
		gotGlobal = global
		return 1, 0
	})
	for i, c := range []struct {
		id     int
		upload Payload
	}{{0, Payload{1, 3}}, {2, Payload{3, 5}}} {
		if res, err := e.Submit(c.id, 1, 0, c.upload); err != nil || res.Status != SubmitAccepted || res.Committed != nil {
			t.Fatalf("submission %d: %+v err %v (a barrier engine commits only on CloseRound)", i, res, err)
		}
	}
	report, ok := e.CloseRound(false)
	if !ok {
		t.Fatal("barrier engine refused CloseRound")
	}
	want := Payload{2, 4}
	for j := range want {
		if gotGlobal[j] != want[j] || e.Global()[j] != want[j] {
			t.Fatalf("global %v, want %v", gotGlobal, want)
		}
	}
	if len(gotPersonalized) != 2 || gotPersonalized[0] == nil || gotPersonalized[2] == nil {
		t.Fatalf("personalized keyed wrong: %v", gotPersonalized)
	}
	if report.Round != 0 || report.Expected != 3 || report.Selected != 2 || report.Arrived != 2 ||
		report.Participants != 2 || report.DownloadDrops != 1 || report.TimedOut {
		t.Fatalf("report %+v", report)
	}
	if e.Round() != 1 || len(e.Reports()) != 1 {
		t.Fatalf("round state %d / %d reports", e.Round(), len(e.Reports()))
	}
}

func TestCompleteRoundFiltersCorruptLengths(t *testing.T) {
	e := mustEngine(t, 2, 2, 1, Payload{0, 0}, nil)
	if drawn := e.Select([]int{0, 1, 2}); len(drawn) != 2 {
		t.Fatalf("pull-side draw %v", drawn)
	}
	e.AbsorbUploadDrops(1)
	if _, err := e.Submit(0, 1, 0, Payload{1}); !errors.Is(err, ErrBadUpload) {
		t.Fatalf("corrupt-length upload: err %v, want ErrBadUpload", err)
	}
	if _, err := e.Submit(1, 1, 0, Payload{4, 6}); err != nil {
		t.Fatal(err)
	}
	report, _ := e.CloseRound(false)
	// The corrupt upload joins the adapter-reported drop; only client 1
	// participates, so the "mean" is its upload. A barrier report keeps the
	// pull-side draw as Selected and counts the rejected upload as Arrived.
	if report.UploadDrops != 2 || report.Participants != 1 || report.Selected != 2 || report.Arrived != 2 {
		t.Fatalf("report %+v", report)
	}
	g := e.Global()
	if g[0] != 4 || g[1] != 6 {
		t.Fatalf("global %v", g)
	}
	// The window resets: the next round reports its own shape.
	if report, _ = e.CloseRound(false); report.UploadDrops != 0 || report.Selected != 0 || report.Arrived != 0 {
		t.Fatalf("window leaked into the next round: %+v", report)
	}
}

func TestCompleteRoundZeroParticipantsCarriesGlobal(t *testing.T) {
	e := mustEngine(t, 2, 2, 1, Payload{7, 8}, nil)
	report, _ := e.CloseRound(true)
	if report.Participants != 0 || !report.TimedOut {
		t.Fatalf("report %+v", report)
	}
	g := e.Global()
	if g[0] != 7 || g[1] != 8 {
		t.Fatalf("global should carry over, got %v", g)
	}
	if e.Round() != 1 {
		t.Fatal("a degenerate round still advances the counter")
	}
	if _, ok := e.Flush(); ok {
		t.Fatal("nothing is left to flush after a close")
	}
}

// TestBarrierRoundIsFreshByConstruction pins the trap between the two
// triggers: under the barrier a client still anchored on an old round (its
// last download was lost) is aggregated at full weight, where the buffer
// trigger at bound 0 would drop it as stale.
func TestBarrierRoundIsFreshByConstruction(t *testing.T) {
	e := mustAsync(t, AsyncOptions{Options: Options{K: 1, Clients: 1, Seed: 1}, Barrier: true}, Payload{0}, nil)
	for seq := 1; seq <= 3; seq++ {
		res, err := e.Submit(0, seq, 0, Payload{float64(seq)}) // base stays 0
		if err != nil || res.Status != SubmitAccepted || res.Staleness != 0 {
			t.Fatalf("round %d: %+v err %v", seq-1, res, err)
		}
		if report, _ := e.CloseRound(false); report.Participants != 1 || report.StaleDrops != 0 {
			t.Fatalf("round %d report %+v", seq-1, report)
		}
		if g := e.Global(); g[0] != float64(seq) {
			t.Fatalf("round %d global %v: the upload was mixed or dropped", seq-1, g)
		}
	}
}

// TestCloseRoundNeedsBarrier: an engine built for the buffer trigger has no
// barrier to close.
func TestCloseRoundNeedsBarrier(t *testing.T) {
	a := mustAsync(t, AsyncOptions{Options: Options{K: 2, Clients: 2, Seed: 1}}, Payload{0}, nil)
	if _, ok := a.CloseRound(false); ok || a.Round() != 0 {
		t.Fatal("buffer-trigger engine closed a round")
	}
}

// TestSubmitRejectsNonFinite pins the poisoned-upload gate at the accept
// point: one NaN or ±Inf scalar rejects the payload with ErrBadUpload, the
// seq is not consumed, the drop lands in the round's UploadDrops, and the
// pass allocates nothing; −0 and subnormals are ordinary values.
func TestSubmitRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name   string
		v      float64
		reject bool
	}{
		{"NaN", math.NaN(), true},
		{"+Inf", math.Inf(1), true},
		{"-Inf", math.Inf(-1), true},
		{"-0", math.Copysign(0, -1), false},
		{"subnormal", math.SmallestNonzeroFloat64, false},
		{"max", math.MaxFloat64, false},
	} {
		for _, stale := range []bool{false, true} {
			a := mustAsync(t, AsyncOptions{Options: Options{K: 2, Clients: 2, Seed: 1}, StalenessBound: -1, Buffer: 2},
				Payload{0, 0, 0}, nil)
			if stale {
				// Advance a round so client 0's base-0 upload takes the mix path.
				a.Submit(1, 1, 0, Payload{1, 1, 1})
				a.Flush()
			}
			res, err := a.Submit(0, 1, 0, Payload{1, tc.v, 3})
			if !tc.reject {
				if err != nil || res.Status != SubmitAccepted {
					t.Fatalf("%s stale=%v: %+v err %v, want accepted", tc.name, stale, res, err)
				}
				continue
			}
			if !errors.Is(err, ErrBadUpload) || res.Status != SubmitNonFinite || res.Committed != nil {
				t.Fatalf("%s stale=%v: %+v err %v, want a non-finite reject", tc.name, stale, res, err)
			}
			// Not consumed: the rebuilt payload lands under the same seq.
			if res, err := a.Submit(0, 1, 0, Payload{1, 2, 3}); err != nil || res.Status != SubmitAccepted {
				t.Fatalf("%s stale=%v: rebuilt retry %+v err %v", tc.name, stale, res, err)
			}
			rep, ok := a.Flush()
			if !ok || rep.UploadDrops != 1 || rep.Participants != 1 {
				t.Fatalf("%s stale=%v: report %+v", tc.name, stale, rep)
			}
			for _, g := range a.Global() {
				if math.IsNaN(g) || math.IsInf(g, 0) {
					t.Fatalf("%s stale=%v: global poisoned: %v", tc.name, stale, a.Global())
				}
			}
		}
	}

	a := mustAsync(t, AsyncOptions{Options: Options{K: 4, Clients: 4, Seed: 1}, Buffer: 4}, make(Payload, 512), nil)
	poisoned := make(Payload, 512)
	poisoned[511] = math.NaN()
	if n := testing.AllocsPerRun(20, func() { a.Submit(0, 1, 0, poisoned) }); n != 0 {
		t.Fatalf("rejecting a poisoned upload allocates %v/op; want 0", n)
	}
}

func TestJoinPolicyReturnsCopies(t *testing.T) {
	e := mustEngine(t, 1, 1, 1, Payload{1, 2}, nil)
	round, global := e.Join(0)
	if round != 0 {
		t.Fatalf("round %d", round)
	}
	global[0] = 99
	if e.Global()[0] != 1 {
		t.Fatal("Join must hand out a copy")
	}
	e.Submit(0, 1, 0, Payload{5, 5})
	e.CloseRound(false)
	round, global = e.State()
	if round != 1 || global[0] != 5 {
		t.Fatalf("late joiner saw round %d global %v", round, global)
	}
	// A join beyond the constructor's N grows the federation the reports
	// describe (fed.AddClient).
	e.Join(1)
	if report, _ := e.CloseRound(false); report.Expected != 2 {
		t.Fatalf("Expected %d after a second client joined, want 2", report.Expected)
	}
}

func TestAggregatePartialZeroUploads(t *testing.T) {
	prev := Payload{1, 2, 3}
	var arena PayloadArena
	personalized, global := AggregatePartialInto(meanAgg{}, nil, prev, &arena)
	if personalized != nil {
		t.Fatal("no personalized payloads expected")
	}
	if fmt.Sprint(global) != fmt.Sprint(prev) {
		t.Fatalf("global %v, want carry-over of %v", global, prev)
	}
}
