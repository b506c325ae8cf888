package fednet

import (
	"container/heap"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fed"
	"repro/internal/fedcore"
	"repro/internal/obs"
)

// swarmFaults is the chaos template used by the swarm tests: every fault
// kind on at once, probabilities high enough to fire in a small run.
func swarmFaults() fed.FaultSpec {
	return fed.FaultSpec{Drop: 0.08, Duplicate: 0.08, Corrupt: 0.05}
}

func sameSwarmResult(t *testing.T, a, b *SwarmResult) {
	t.Helper()
	if len(a.Global) != len(b.Global) {
		t.Fatalf("global lengths %d vs %d", len(a.Global), len(b.Global))
	}
	for i := range a.Global {
		if a.Global[i] != b.Global[i] {
			t.Fatalf("global[%d] %v vs %v — swarm run is not deterministic", i, a.Global[i], b.Global[i])
		}
	}
	if len(a.Reports) != len(b.Reports) {
		t.Fatalf("%d vs %d committed rounds", len(a.Reports), len(b.Reports))
	}
	for r := range a.Reports {
		if a.Reports[r] != b.Reports[r] {
			t.Fatalf("round %d reports diverged:\n a %+v\n b %+v", r, a.Reports[r], b.Reports[r])
		}
	}
	if a.Rounds != b.Rounds || a.Flushed != b.Flushed ||
		a.Retries != b.Retries || a.Faults != b.Faults ||
		a.StaleDrops != b.StaleDrops || a.DupDrops != b.DupDrops ||
		a.MeanReward != b.MeanReward || a.Comm != b.Comm {
		t.Fatalf("swarm summaries diverged:\n a %+v\n b %+v", a, b)
	}
}

// TestSwarmDeterministic runs the 16-client chaos swarm twice on the same
// seed and requires bit-identical results end to end: globals, reports,
// fault schedules, retry counts, drop windows, reward.
func TestSwarmDeterministic(t *testing.T) {
	cfg := SwarmConfig{
		Clients:        16,
		Buffer:         4,
		StalenessBound: 2,
		Rounds:         3,
		Seed:           42,
		Faults:         swarmFaults(),
	}
	a, err := RunSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameSwarmResult(t, a, b)
	if a.Rounds == 0 {
		t.Fatal("swarm committed no rounds")
	}
	if a.Faults.Total() == 0 {
		t.Fatal("fault injector never fired — the chaos run tested nothing")
	}
	if a.Retries == 0 {
		t.Fatal("no client retried — injected faults were not exercised end to end")
	}
}

// TestSwarmHundredClients is the ISSUE's scale pin: a 100+-client async
// swarm with fault injection completes deterministically under a fixed
// seed, and the staleness metrics are visible through internal/obs.
func TestSwarmHundredClients(t *testing.T) {
	if testing.Short() {
		t.Skip("swarm scale run skipped in -short mode")
	}
	reg := obs.DefaultRegistry()
	var before strings.Builder
	if err := reg.WriteText(&before); err != nil {
		t.Fatal(err)
	}

	cfg := SwarmConfig{
		Clients:        104,
		Buffer:         8,
		StalenessBound: 4,
		Rounds:         2,
		Seed:           7,
		Faults:         swarmFaults(),
	}
	res, err := RunSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every client submits Rounds deltas; with buffer 8 the fleet must have
	// committed a substantial number of rounds.
	if res.Rounds < cfg.Clients*cfg.Rounds/(2*cfg.Buffer) {
		t.Fatalf("only %d rounds committed for %d clients", res.Rounds, cfg.Clients)
	}
	if res.Faults.Total() == 0 {
		t.Fatal("fault injector never fired at scale")
	}

	// Staleness metrics surfaced via obs: the exposition text names them and
	// the histogram observed this run's submissions.
	var after strings.Builder
	if err := reg.WriteText(&after); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"pfrl_fed_staleness_rounds",
		"pfrl_fed_staleness_drops_total",
		"pfrl_fed_async_duplicate_drops_total",
		"pfrl_fed_async_commits_total",
		"pfrl_fed_async_buffer_fill",
	} {
		if !strings.Contains(after.String(), name) {
			t.Fatalf("metric %s missing from obs exposition", name)
		}
	}
	if before.String() == after.String() {
		t.Fatal("swarm run left the obs registry untouched — staleness metrics not recorded")
	}
}

// driveSerial is the reference drive: the schedule consumed one activation at
// a time, each client's fetch, training segment and sync done before the next
// client's begin. RunSwarm must produce its result bit for bit.
func driveSerial(f *swarmFleet) error {
	for f.h.Len() > 0 {
		ev := heap.Pop(&f.h).(swarmEvent)
		if err := f.rcs[ev.id].RunRounds(1, f.cfg.CommEvery); err != nil {
			return f.fail(ev, err)
		}
		ev.rounds++
		if ev.rounds < f.cfg.Rounds {
			ev.at += 1 + f.pacing[ev.id].Int63n(97)
			heap.Push(&f.h, ev)
		}
	}
	return nil
}

// atGOMAXPROCS runs fn with the given proc count — RunSwarm's worker count —
// and restores the old one.
func atGOMAXPROCS(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// TestSwarmWindowedMatchesSerial is DESIGN §9 contract 1: at any GOMAXPROCS,
// RunSwarm's windowed drive returns the one-at-a-time drive's SwarmResult,
// Elapsed aside. The rows put the window through its edges: a client that
// recurs before the buffer fills (the cut), a window of one, a buffer the
// engine resolves itself (unset, and K above the fleet), both ends of the
// staleness bound, every codec tier, faults on and off.
func TestSwarmWindowedMatchesSerial(t *testing.T) {
	delta := func(tier fedcore.Tier) fedcore.CodecConfig { return fedcore.CodecConfig{Tier: tier, Delta: true} }
	for _, tc := range []struct {
		name string
		cfg  SwarmConfig
	}{
		{"clients below buffer", SwarmConfig{Clients: 3, Buffer: 5, StalenessBound: -1, Rounds: 3}},
		{"buffer 1 fresh only f32", SwarmConfig{Clients: 2, Buffer: 1, Rounds: 2,
			Codec: fedcore.CodecConfig{Tier: fedcore.TierF32}, Faults: swarmFaults()}},
		{"buffer unset i16 delta", SwarmConfig{Clients: 6, K: 3, StalenessBound: 2, Rounds: 2,
			Codec: delta(fedcore.TierI16), Faults: swarmFaults()}},
		{"buffer unset k above fleet", SwarmConfig{Clients: 5, K: 9, StalenessBound: 1, Rounds: 2, Faults: swarmFaults()}},
		{"unbounded staleness flushed", SwarmConfig{Clients: 7, K: 4, Buffer: 5, StalenessBound: -1, Rounds: 2,
			Faults: swarmFaults()}},
		{"chaos i8 delta", SwarmConfig{Clients: 10, Buffer: 5, StalenessBound: 2, Rounds: 2,
			Codec: delta(fedcore.TierI8), Faults: swarmFaults()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Seed, tc.cfg.Tasks = 42, 4
			want, err := runSwarm(tc.cfg, driveSerial)
			if err != nil {
				t.Fatal(err)
			}
			if want.Rounds == 0 {
				t.Fatal("reference drive committed no rounds")
			}
			t.Logf("%d rounds (flushed=%v), %d stale and %d duplicate drops, %d retries",
				want.Rounds, want.Flushed, want.StaleDrops, want.DupDrops, want.Retries)
			for _, procs := range []int{1, 4} {
				atGOMAXPROCS(procs, func() {
					got, err := RunSwarm(tc.cfg)
					if err != nil {
						t.Fatalf("GOMAXPROCS %d: %v", procs, err)
					}
					sameSwarmResult(t, want, got)
				})
			}
		})
	}
}

// TestSwarmErrorInScheduleOrder: a swarm that cannot finish fails as the
// one-at-a-time drive does — on the first failing step in schedule order, a
// Sync owed by the window before a later activation's Fetch — and returns
// only once every training segment it started has finished.
func TestSwarmErrorInScheduleOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		seed  int64
		drop  float64
		fails string
	}{
		{"every upload dropped", 11, 1, "sync round 0"},
		{"fetch fails first", 16, 0.25, "fetch before round 2"},
		// A later Fetch of the same window fails too, and is not the error.
		{"sync before a failing fetch", 24, 0.25, "sync round 1"},
		{"sync before a failing fetch, round 0", 69, 0.25, "sync round 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := SwarmConfig{Clients: 8, Buffer: 4, StalenessBound: -1, Rounds: 4, CommEvery: 2, Tasks: 4,
				Seed: tc.seed, Retries: 1, Faults: fed.FaultSpec{Drop: tc.drop}}
			_, want := runSwarm(cfg, driveSerial)
			if want == nil || !strings.Contains(want.Error(), tc.fails) {
				t.Fatalf("reference drive: got %v, want a %q failure", want, tc.fails)
			}
			atGOMAXPROCS(4, func() {
				var fleet *swarmFleet
				res, err := runSwarm(cfg, func(f *swarmFleet) error { fleet = f; return f.drive() })
				if res != nil || err == nil || err.Error() != want.Error() {
					t.Fatalf("windowed drive failed with\n  %v\nthe one-at-a-time drive with\n  %v", err, want)
				}
				// A worker that outlived the call is still appending rewards:
				// a data race on this read, and a count that moves.
				episodes := func() (n int) {
					for _, rc := range fleet.rcs {
						n += len(rc.Local.Rewards)
					}
					return n
				}
				atReturn := episodes()
				time.Sleep(20 * time.Millisecond)
				if now := episodes(); now != atReturn {
					t.Fatalf("training went on after RunSwarm returned: %d episodes, then %d", atReturn, now)
				}
			})
		})
	}
}
