package fedcore

import (
	"errors"
	"testing"
	"time"
)

func mustAsync(t *testing.T, opts AsyncOptions, initial Payload, deliver Delivery) *AsyncEngine {
	t.Helper()
	a, err := NewAsync(meanAgg{}, initial, opts, deliver)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestAsyncBufferCommit pins the commit trigger: B accepted arrivals fire
// one aggregation round over exactly those arrivals; the buffer then resets.
func TestAsyncBufferCommit(t *testing.T) {
	delivered := map[int]Payload{}
	a := mustAsync(t, AsyncOptions{
		Options:        Options{K: 2, Clients: 4, Seed: 1},
		StalenessBound: -1,
		Buffer:         2,
	}, Payload{0, 0}, func(personalized map[int]Payload, _ Payload) (int, time.Duration) {
		for id, p := range personalized {
			delivered[id] = append(Payload(nil), p...)
		}
		return 0, 0
	})

	res, err := a.Submit(0, 1, 0, Payload{2, 4})
	if err != nil || res.Status != SubmitAccepted || res.Committed != nil {
		t.Fatalf("first submission: %+v err %v", res, err)
	}
	res, err = a.Submit(1, 1, 0, Payload{4, 8})
	if err != nil || res.Status != SubmitAccepted {
		t.Fatalf("second submission: %+v err %v", res, err)
	}
	if res.Committed == nil {
		t.Fatal("buffer of 2 did not commit on the second arrival")
	}
	if got := a.Engine().Global(); got[0] != 3 || got[1] != 6 {
		t.Fatalf("committed global %v, want mean [3 6]", got)
	}
	if res.Round != 1 {
		t.Fatalf("post-commit round %d, want 1", res.Round)
	}
	rep := *res.Committed
	if rep.Round != 0 || rep.Expected != 4 || rep.Selected != 2 || rep.Arrived != 2 || rep.Participants != 2 {
		t.Fatalf("commit report %+v", rep)
	}
	if rep.StaleDrops != 0 || rep.DupDrops != 0 || rep.UploadDrops != 0 {
		t.Fatalf("fault-free commit carries drops: %+v", rep)
	}
	// Both participants' personalized payloads reached the adapter, which
	// owns their retention (fednet: TestAsyncFetchDeliversCommittedResults).
	if len(delivered) != 2 || delivered[0][0] != 3 || delivered[1][1] != 6 {
		t.Fatalf("delivered %v, want both participants' [3 6]", delivered)
	}
}

// TestAsyncStalenessWeighting pins the mixing formula on hand-computed
// values: a delta one round stale is pre-mixed toward the current global
// with w = 1/(1+1) = 0.5 before aggregation; a fresh delta is used verbatim
// (no blend at τ = 0).
func TestAsyncStalenessWeighting(t *testing.T) {
	a := mustAsync(t, AsyncOptions{
		Options:        Options{K: 4, Clients: 4, Seed: 1},
		StalenessBound: -1,
		Buffer:         1,
	}, Payload{0, 0}, nil)

	// Commit 1: fresh delta from client 0 installs [8, 4] verbatim.
	if res, err := a.Submit(0, 1, 0, Payload{8, 4}); err != nil || res.Committed == nil {
		t.Fatalf("fresh commit: %+v err %v", res, err)
	}
	if g := a.Engine().Global(); g[0] != 8 || g[1] != 4 {
		t.Fatalf("fresh delta was blended: global %v, want [8 4]", g)
	}

	// Commit 2: client 1 submits base 0 while the engine is on round 1 —
	// one round stale. ũ = 0.5*[2 2] + 0.5*[8 4] = [5 3].
	res, err := a.Submit(1, 1, 0, Payload{2, 2})
	if err != nil || res.Committed == nil {
		t.Fatalf("stale commit: %+v err %v", res, err)
	}
	if res.Staleness != 1 {
		t.Fatalf("staleness %d, want 1", res.Staleness)
	}
	if g := a.Engine().Global(); g[0] != 5 || g[1] != 3 {
		t.Fatalf("staleness weighting wrong: global %v, want [5 3]", g)
	}
}

// TestAsyncStalenessBoundDrops pins the cap: a delta staler than the bound
// is dropped into the next report's StaleDrops, consumes its seq, and does
// not advance the buffer.
func TestAsyncStalenessBoundDrops(t *testing.T) {
	a := mustAsync(t, AsyncOptions{
		Options:        Options{K: 4, Clients: 4, Seed: 1},
		StalenessBound: 0,
		Buffer:         1,
	}, Payload{0}, nil)

	// Advance to round 2 with fresh commits from client 0.
	if _, err := a.Submit(0, 1, 0, Payload{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Submit(0, 2, 1, Payload{2}); err != nil {
		t.Fatal(err)
	}

	// Client 1 is two rounds behind: dropped under bound 0.
	res, err := a.Submit(1, 1, 0, Payload{9})
	if err != nil || res.Status != SubmitStale || res.Committed != nil {
		t.Fatalf("over-stale submission: %+v err %v", res, err)
	}
	if g := a.Engine().Global(); g[0] != 2 {
		t.Fatalf("stale delta leaked into the global: %v", g)
	}
	// The drop is consumed: a retransmit with the same seq is a duplicate.
	res, err = a.Submit(1, 1, 2, Payload{9})
	if err != nil || res.Status != SubmitDuplicate {
		t.Fatalf("retransmit of a consumed stale delta: %+v err %v", res, err)
	}
	// Both drops surface in the next commit's report.
	if _, err := a.Submit(0, 3, 2, Payload{3}); err != nil {
		t.Fatal(err)
	}
	reports := a.Engine().Reports()
	last := reports[len(reports)-1]
	if last.StaleDrops != 1 || last.DupDrops != 1 {
		t.Fatalf("drop window not reported: %+v", last)
	}
	// And the window resets afterwards.
	if _, err := a.Submit(0, 4, 3, Payload{4}); err != nil {
		t.Fatal(err)
	}
	reports = a.Engine().Reports()
	if last = reports[len(reports)-1]; last.StaleDrops != 0 || last.DupDrops != 0 {
		t.Fatalf("drop window leaked across commits: %+v", last)
	}
}

// TestAsyncDuplicateSubmissions pins the dedup contract around retries:
//   - a retransmit (same seq) after a consumed submission is dropped,
//   - a length-reject does NOT consume the seq, so the rebuilt retry lands,
//   - a new seq from the same base round is NOT a duplicate (a client may
//     legitimately submit twice between commits),
//   - Join clears the slot's dedup state for a restarted client.
func TestAsyncDuplicateSubmissions(t *testing.T) {
	a := mustAsync(t, AsyncOptions{
		Options:        Options{K: 4, Clients: 4, Seed: 1},
		StalenessBound: -1,
		Buffer:         3,
	}, Payload{0}, nil)

	if res, err := a.Submit(0, 1, 0, Payload{1}); err != nil || res.Status != SubmitAccepted {
		t.Fatalf("first: %+v err %v", res, err)
	}
	// Retransmit after a lost reply: dropped, buffer unmoved.
	res, err := a.Submit(0, 1, 0, Payload{1})
	if err != nil || res.Status != SubmitDuplicate || res.Committed != nil {
		t.Fatalf("retransmit: %+v err %v", res, err)
	}
	// Length reject does not consume seq 2...
	if _, err := a.Submit(0, 2, 0, Payload{1, 2, 3}); !errors.Is(err, ErrBadUpload) {
		t.Fatalf("bad upload error: %v", err)
	}
	// ...so the rebuilt payload with the same seq is accepted.
	if res, err := a.Submit(0, 2, 0, Payload{2}); err != nil || res.Status != SubmitAccepted {
		t.Fatalf("rebuilt retry: %+v err %v", res, err)
	}
	// Same client, same base round, fresh seq: a legitimate second delta.
	res, err = a.Submit(0, 3, 0, Payload{3})
	if err != nil || res.Status != SubmitAccepted {
		t.Fatalf("second delta same base: %+v err %v", res, err)
	}
	if res.Committed == nil {
		// Buffer 3 reached: 1, 2, 3 accepted.
		t.Fatal("three accepted submissions did not commit with buffer 3")
	}
	// A restarted client reclaims its slot: Join clears dedup state so its
	// fresh seq 1 is not shadowed by the previous life.
	a.Join(0)
	if res, err := a.Submit(0, 1, a.Engine().Round(), Payload{5}); err != nil || res.Status != SubmitAccepted {
		t.Fatalf("post-rejoin submission: %+v err %v", res, err)
	}
}

// TestAsyncFlush pins the shutdown path: a partial buffer force-commits,
// an empty one does not.
func TestAsyncFlush(t *testing.T) {
	a := mustAsync(t, AsyncOptions{
		Options: Options{K: 4, Clients: 4, Seed: 1},
		Buffer:  3,
	}, Payload{0}, nil)
	if _, ok := a.Flush(); ok {
		t.Fatal("empty buffer flushed a round")
	}
	if _, err := a.Submit(0, 1, 0, Payload{6}); err != nil {
		t.Fatal(err)
	}
	rep, ok := a.Flush()
	if !ok || rep.Arrived != 1 || rep.Participants != 1 {
		t.Fatalf("flush report %+v ok=%v", rep, ok)
	}
	if g := a.Engine().Global(); g[0] != 6 {
		t.Fatalf("flushed global %v", g)
	}
	if _, ok := a.Flush(); ok {
		t.Fatal("second flush re-committed an empty buffer")
	}
}

// TestAsyncBufferDefaultsToK pins the Buffer <= 0 resolution: the K-th
// accepted arrival commits.
func TestAsyncBufferDefaultsToK(t *testing.T) {
	a := mustAsync(t, AsyncOptions{Options: Options{K: 3, Clients: 6, Seed: 1}}, Payload{0}, nil)
	for id := 0; id < 3; id++ {
		res, err := a.Submit(id, 1, 0, Payload{1})
		if err != nil || (res.Committed != nil) != (id == 2) {
			t.Fatalf("arrival %d: %+v err %v, want the commit on the K=3rd", id, res, err)
		}
	}
}
