package cloudsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/workload"
)

// This file is the simulator invariant-test harness: a randomized-action
// driver that runs many (seed, policy, configuration) episodes and asserts
// global engine invariants after every Step — at 20 VMs with exhaustive
// per-step checks and at 500 VMs with sampled deep checks, in legacy,
// identity and ranked top-k modes.

// tieredCluster builds an n-VM cluster cycling through the four hardware
// tiers used by the benchmarks.
func tieredCluster(n int) []VMSpec {
	mix := []VMSpec{{CPU: 8, Mem: 64}, {CPU: 16, Mem: 128}, {CPU: 32, Mem: 256}, {CPU: 64, Mem: 512}}
	specs := make([]VMSpec, n)
	for i := range specs {
		specs[i] = mix[i%len(mix)]
	}
	return specs
}

// invWorkload samples a clamped Google-model workload for the cluster.
func invWorkload(specs []VMSpec, n int, seed int64) []workload.Task {
	m := workload.Lookup(workload.Google)
	return ClampTasks(m.Sample(rand.New(rand.NewSource(seed)), n), specs)
}

// invariantRun drives env to completion with pick, checking engine
// invariants after every step. deepEvery > 0 additionally cross-checks the
// incremental ranked-mode state against scratch recomputation (and the
// candidate index against a brute-force ranking) every deepEvery steps.
func invariantRun(t *testing.T, env *Env, pick func(*Env, *rand.Rand) int, rng *rand.Rand, deepEvery int) {
	t.Helper()

	// Retirement-order and exactly-once accounting via the retire hook.
	lastFinish, lastID := -1, -1
	retired := make(map[int]int)
	env.retireHook = func(c completion) {
		if c.finish < lastFinish || (c.finish == lastFinish && c.id <= lastID) {
			t.Fatalf("heap popped (%d,%d) after (%d,%d)", c.finish, c.id, lastFinish, lastID)
		}
		lastFinish, lastID = c.finish, c.id
		retired[c.id]++
		if retired[c.id] > 1 {
			t.Fatalf("task %d retired %d times", c.id, retired[c.id])
		}
	}
	defer func() { env.retireHook = nil }()

	prevPulled, prevPlaced := 0, 0
	steps := 0
	var rec recorder
	for !checkDone(t, env) {
		rec.step(env, pick(env, rng))
		steps++
		// Cursor monotonicity: pulls and placements never regress.
		if env.pulled < prevPulled {
			t.Fatalf("source pull counter regressed: %d -> %d", prevPulled, env.pulled)
		}
		if env.placed < prevPlaced {
			t.Fatalf("placement count regressed: %d -> %d", prevPlaced, env.placed)
		}
		prevPulled, prevPlaced = env.pulled, env.placed
		checkStepInvariants(t, env)
		if deepEvery > 0 && steps%deepEvery == 0 {
			checkDeepInvariants(t, env)
		}
	}
	env.Drain()
	checkStepInvariants(t, env)
	checkDeepInvariants(t, env)

	// After draining, every placed task has retired exactly once and
	// nothing is left in flight.
	if len(env.heap) != 0 {
		t.Fatalf("completion heap not empty after Drain: %d entries", len(env.heap))
	}
	for _, vm := range env.vms {
		if vm.RunningTasks() != 0 {
			t.Fatalf("VM still running %d tasks after Drain", vm.RunningTasks())
		}
	}
	if len(retired) != len(rec.recs) || len(rec.recs) != env.placed {
		t.Fatalf("retired %d distinct tasks, recorded %d placements, placed %d", len(retired), len(rec.recs), env.placed)
	}
	for _, r := range rec.recs {
		if retired[r.Task.ID] != 1 {
			t.Fatalf("placed task %d retired %d times", r.Task.ID, retired[r.Task.ID])
		}
	}
	if !env.Truncated() && env.SourceErr() == nil && env.placed != env.totalTasks {
		t.Fatalf("episode done with %d of %d tasks placed", env.placed, env.totalTasks)
	}
	if m := env.Metrics(); m.Total != env.src.Total() {
		t.Fatalf("Metrics.Total %d, source offered %d", m.Total, env.src.Total())
	}
}

// checkDone asserts the episode contract — the episode ends on the step cap
// or once nothing is left to schedule (source done, peek empty, queue empty),
// and is truncated only on the cap — and returns Done.
func checkDone(t *testing.T, env *Env) bool {
	t.Helper()
	capped := env.step >= env.cfg.MaxSteps
	exhausted := env.srcDone && !env.hasPeek && env.QueueLen() == 0
	if got := env.Done(); got != (capped || exhausted) {
		t.Fatalf("step %d: Done %v, want cap %v || exhausted %v", env.step, got, capped, exhausted)
	}
	if got := env.Truncated(); got != (capped && !exhausted) {
		t.Fatalf("step %d: Truncated %v, want cap %v && !exhausted %v", env.step, got, capped, exhausted)
	}
	return env.Done()
}

// checkStepInvariants asserts the per-VM resource-accounting invariants:
// free counters within [0, capacity], the vCPU owner table consistent with
// the task store, and queue cursors in range.
func checkStepInvariants(t *testing.T, env *Env) {
	t.Helper()
	if env.qhead < 0 || env.qhead > len(env.queue) {
		t.Fatalf("queue cursor out of range: qhead=%d len=%d", env.qhead, len(env.queue))
	}
	for vi, vm := range env.vms {
		if vm.freeCPU < 0 || vm.freeCPU > vm.Spec.CPU {
			t.Fatalf("VM %d freeCPU %d outside [0,%d]", vi, vm.freeCPU, vm.Spec.CPU)
		}
		if vm.freeMem < -1e-9 || vm.freeMem > vm.Spec.Mem+1e-9 {
			t.Fatalf("VM %d freeMem %g outside [0,%g]", vi, vm.freeMem, vm.Spec.Mem)
		}
		// Owner table vs store: every occupied vCPU belongs to exactly one
		// active task, and each active task owns exactly task.CPU vCPUs.
		ownedBy := make(map[int]int)
		occupied := 0
		for k, owner := range vm.vcpuOwner {
			if owner == -1 {
				continue
			}
			occupied++
			ownedBy[owner]++
			if owner >= len(vm.store) || !vm.store[owner].active {
				t.Fatalf("VM %d vCPU %d owned by dead store slot %d", vi, k, owner)
			}
		}
		sumCPU, sumMem := 0, 0.0
		vm.forEachRunning(func(r *running) {
			sumCPU += r.task.CPU
			sumMem += r.task.Mem
			slot := r.vcpus
			if len(slot) != r.task.CPU {
				t.Fatalf("VM %d task %d holds %d vCPUs, requested %d", vi, r.task.ID, len(slot), r.task.CPU)
			}
		})
		if occupied != vm.Spec.CPU-vm.freeCPU || sumCPU != occupied {
			t.Fatalf("VM %d vCPU accounting: owners=%d cap-free=%d tasks=%d",
				vi, occupied, vm.Spec.CPU-vm.freeCPU, sumCPU)
		}
		if math.Abs(sumMem-(vm.Spec.Mem-vm.freeMem)) > 1e-6 {
			t.Fatalf("VM %d memory accounting: tasks=%g cap-free=%g", vi, sumMem, vm.Spec.Mem-vm.freeMem)
		}
	}
}

// checkDeepInvariants cross-checks the ranked-mode incremental state
// (whole-cluster accumulators, aggregate histograms, and the candidate
// index) against scratch recomputation.
func checkDeepInvariants(t *testing.T, env *Env) {
	t.Helper()
	if env.aggOn {
		histCPU := make([]int, env.cfg.UtilBuckets)
		histMem := make([]int, env.cfg.UtilBuckets)
		usedCPU, usedMem := 0, 0.0
		for _, vm := range env.vms {
			histCPU[env.utilBucket(vm.util[0])]++
			histMem[env.utilBucket(vm.util[1])]++
			usedCPU += vm.Spec.CPU - vm.freeCPU
			usedMem += vm.Spec.Mem - vm.freeMem
		}
		for b := range histCPU {
			if histCPU[b] != env.histCPU[b] || histMem[b] != env.histMem[b] {
				t.Fatalf("histogram drift in bucket %d: cpu %d/%d mem %d/%d",
					b, env.histCPU[b], histCPU[b], env.histMem[b], histMem[b])
			}
		}
		if usedCPU != env.usedCPU || math.Abs(usedMem-env.usedMem) > 1e-6 {
			t.Fatalf("usage drift: cpu %d/%d mem %g/%g", env.usedCPU, usedCPU, env.usedMem, usedMem)
		}
	}
	if !env.ranked {
		return
	}
	// Accumulators vs scratch scans.
	var sumUtil, sumRem, sumRem2 [NumResources]float64
	busy, busyUtil, busyPrice := 0, 0.0, 0.0
	for i, vm := range env.vms {
		for r := 0; r < NumResources; r++ {
			sumUtil[r] += vm.util[r]
			sumRem[r] += vm.rem[r]
			sumRem2[r] += vm.rem[r] * vm.rem[r]
		}
		if vm.RunningTasks() > 0 {
			busy++
			busyUtil += vm.util[0]
			busyPrice += env.vmPrice(i)
		}
	}
	for r := 0; r < NumResources; r++ {
		if math.Abs(sumUtil[r]-env.sumUtil[r]) > 1e-6 ||
			math.Abs(sumRem[r]-env.sumRem[r]) > 1e-6 ||
			math.Abs(sumRem2[r]-env.sumRem2[r]) > 1e-6 {
			t.Fatalf("accumulator drift on resource %d", r)
		}
	}
	if busy != env.busyVMs || math.Abs(busyUtil-env.sumBusyCPUUtil) > 1e-6 ||
		math.Abs(busyPrice-env.sumBusyPrice) > 1e-6 {
		t.Fatalf("busy-VM accumulator drift: %d/%d %g/%g %g/%g",
			env.busyVMs, busy, env.sumBusyCPUUtil, busyUtil, env.sumBusyPrice, busyPrice)
	}
	// Candidate index vs brute-force ranking.
	head, ok := env.HeadTask()
	if !ok {
		return
	}
	type key struct{ c, m, i int }
	var want []key
	for i, vm := range env.vms {
		if vm.Fits(head) {
			want = append(want, key{cpuClassOf(vm.freeCPU), memClassOf(vm.freeMem), i})
		}
	}
	sort.Slice(want, func(a, b int) bool {
		if want[a].c != want[b].c {
			return want[a].c < want[b].c
		}
		if want[a].m != want[b].m {
			return want[a].m < want[b].m
		}
		return want[a].i < want[b].i
	})
	if len(want) > env.cfg.TopK {
		want = want[:env.cfg.TopK]
	}
	got := env.Candidates()
	for s := range got {
		switch {
		case s < len(want) && int(got[s]) != want[s].i:
			t.Fatalf("candidate slot %d: got VM %d, brute force wants %d", s, got[s], want[s].i)
		case s >= len(want) && got[s] != -1:
			t.Fatalf("candidate slot %d: got VM %d past %d feasible VMs", s, got[s], len(want))
		}
		if got[s] >= 0 && !env.vms[got[s]].Fits(head) {
			t.Fatalf("candidate slot %d: VM %d does not fit head task", s, got[s])
		}
	}
}

// invariant driver policies: pure-random actions (mostly invalid at large
// action counts — exercises penalties and time advancement), feasible-only
// random actions, and the heuristic portfolio.
func pickRandom(env *Env, rng *rand.Rand) int { return rng.Intn(env.NumActions()) }

func pickFeasible(env *Env, rng *rand.Rand) int {
	mask := env.FeasibleActions()
	n := 0
	for _, ok := range mask {
		if ok {
			n++
		}
	}
	pick := rng.Intn(n)
	for a, ok := range mask {
		if ok {
			if pick == 0 {
				return a
			}
			pick--
		}
	}
	return env.WaitAction()
}

func policyPicker(p Policy) func(*Env, *rand.Rand) int {
	return func(env *Env, _ *rand.Rand) int { return p.SelectAction(env) }
}

// invariantConfigs returns the mode matrix for a cluster: legacy per-VM,
// identity top-k and ranked top-k with aggregates.
func invariantConfigs(specs []VMSpec) map[string]Config {
	legacy := DefaultConfig(specs)
	identity := legacy
	identity.TopK = len(specs)
	ranked := legacy
	ranked.TopK = 4
	ranked.UtilBuckets = 4
	return map[string]Config{
		"legacy": legacy, "identity": identity, "ranked": ranked,
	}
}

// TestInvariants20VMs runs the full policy × mode × seed matrix on a 20-VM
// cluster with per-step invariant checks and frequent deep checks.
func TestInvariants20VMs(t *testing.T) {
	specs := benchCluster()
	for name, cfg := range invariantConfigs(specs) {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				tasks := invWorkload(specs, 150, seed)
				env := MustNewEnv(cfg, tasks)
				policies := []struct {
					name string
					pick func(*Env, *rand.Rand) int
				}{
					{"random", pickRandom},
					{"feasible", pickFeasible},
					{"first-fit", policyPicker(FirstFit{})},
					{"best-fit", policyPicker(BestFit{})},
					{"worst-fit", policyPicker(WorstFit{})},
					{"random-fit", policyPicker(RandomFit{Rng: rand.New(rand.NewSource(seed))})},
				}
				for _, p := range policies {
					env.Reset(tasks)
					invariantRun(t, env, p.pick, rand.New(rand.NewSource(seed*101+1)), 10)
					if t.Failed() {
						t.Fatalf("invariants failed: seed %d policy %s", seed, p.name)
					}
				}
			}
		})
	}
}

// TestInvariants500VMs runs the harness at 500 VMs in ranked mode (the
// scalable code path), with per-step accounting checks and sampled deep
// checks.
func TestInvariants500VMs(t *testing.T) {
	specs := tieredCluster(500)
	cfg := invariantConfigs(specs)["ranked"]
	cfg.TopK = 8
	t.Run("ranked", func(t *testing.T) {
		for seed := int64(1); seed <= 2; seed++ {
			tasks := invWorkload(specs, 1500, seed)
			env := MustNewEnv(cfg, tasks)
			for _, pick := range []func(*Env, *rand.Rand) int{
				pickRandom, policyPicker(BestFit{}),
			} {
				env.Reset(tasks)
				invariantRun(t, env, pick, rand.New(rand.NewSource(seed*7+3)), 200)
			}
		}
	})
}

// TestInvariantsStreamingSource runs the harness over a streaming sampler
// source (tasks never materialized), exercising the peek/pull path under
// random actions.
func TestInvariantsStreamingSource(t *testing.T) {
	specs := benchCluster()
	cfg := invariantConfigs(specs)["ranked"]
	m := workload.Lookup(workload.Google)
	for seed := int64(1); seed <= 3; seed++ {
		env, err := NewEnvSource(cfg, NewSamplerSource(m, seed, 200, specs))
		if err != nil {
			t.Fatal(err)
		}
		invariantRun(t, env, pickFeasible, rand.New(rand.NewSource(seed)), 25)
		if env.SourceErr() != nil {
			t.Fatalf("unexpected source error: %v", env.SourceErr())
		}
	}
}

// claimedTotal reports n as its length, whatever it emits.
type claimedTotal struct {
	TaskSource
	n int
}

func (c claimedTotal) Total() int { return c.n }

// TestNegativeTotalRefused pins the one guard on a source's length: a source
// that does not report its exact length is refused by both entry points,
// whatever the step cap.
func TestNegativeTotalRefused(t *testing.T) {
	specs := benchCluster()
	cfg := DefaultConfig(specs)
	cfg.MaxSteps = 20000
	src := claimedTotal{NewSamplerSource(workload.Lookup(workload.Google), 1, 10, specs), -1}
	if _, err := NewEnvSource(cfg, src); err == nil {
		t.Fatal("NewEnvSource accepted a source with a negative total")
	}
	env := MustNewEnv(cfg, nil)
	if err := env.ResetSource(src); err == nil {
		t.Fatal("ResetSource accepted a source with a negative total")
	}
}

// TestSourceLengthMismatchShutsDown: a source that emits fewer or more tasks
// than its Total broke the length contract, so the episode shuts it down as
// on a malformed pull — SourceErr set, the tasks within the claim scheduled —
// and Metrics.Total stays the claimed count.
func TestSourceLengthMismatchShutsDown(t *testing.T) {
	specs := []VMSpec{{CPU: 8, Mem: 16}}
	tasks := ClampTasks(workload.Lookup(workload.Google).Sample(rand.New(rand.NewSource(3)), 6), specs)
	for _, claim := range []int{len(tasks) + 1, len(tasks) - 1} {
		env, err := NewEnvSource(DefaultConfig(specs), claimedTotal{&SliceSource{tasks: tasks}, claim})
		if err != nil {
			t.Fatal(err)
		}
		m := RunEpisode(env, FirstFit{})
		if env.SourceErr() == nil {
			t.Fatalf("claim %d of %d emitted: no source error", claim, len(tasks))
		}
		if want := min(claim, len(tasks)); m.Total != claim || m.Completed != want {
			t.Fatalf("claim %d of %d emitted: coverage %d/%d, want %d/%d", claim, len(tasks), m.Completed, m.Total, want, claim)
		}
	}
}

// TestSourceFailureShutsDownDeterministically pins srcFail: a source that
// yields a malformed task (or regressing arrivals) stops feeding, reports
// SourceErr, and the episode completes over the tasks already admitted.
func TestSourceFailureShutsDownDeterministically(t *testing.T) {
	specs := []VMSpec{{CPU: 4, Mem: 8}}
	cfg := DefaultConfig(specs)
	cfg.MaxSteps = 500
	cases := []struct {
		name  string
		tasks []workload.Task
	}{
		{"zero-duration", []workload.Task{
			{ID: 0, Arrival: 0, CPU: 1, Mem: 1, Duration: 2},
			{ID: 1, Arrival: 1, CPU: 1, Mem: 1, Duration: 0},
			{ID: 2, Arrival: 2, CPU: 1, Mem: 1, Duration: 2},
		}},
		{"arrival-regression", []workload.Task{
			{ID: 0, Arrival: 3, CPU: 1, Mem: 1, Duration: 2},
			{ID: 1, Arrival: 1, CPU: 1, Mem: 1, Duration: 2},
		}},
		{"bad-memory", []workload.Task{
			{ID: 0, Arrival: 0, CPU: 1, Mem: 1, Duration: 2},
			{ID: 1, Arrival: 0, CPU: 1, Mem: math.NaN(), Duration: 2},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env, err := NewEnvSource(cfg, &scriptedSource{tasks: tc.tasks})
			if err != nil {
				t.Fatal(err)
			}
			var rec recorder
			for !env.Done() {
				rec.step(env, FirstFit{}.SelectAction(env))
				checkStepInvariants(t, env)
			}
			env.Drain()
			if env.SourceErr() == nil {
				t.Fatal("source error not reported")
			}
			if got := len(rec.recs); got != 1 {
				t.Fatalf("placed %d tasks, want exactly the 1 valid pre-failure task", got)
			}
			checkCoverageShort(t, env.Metrics(), len(tc.tasks))
		})
	}
}

// checkCoverageShort asserts what a source failure leaves in the metrics:
// Total is still the offered count, and the tasks the failure cost show as
// unscheduled.
func checkCoverageShort(t *testing.T, m Metrics, offered int) {
	t.Helper()
	if m.Total != offered || m.Completed >= m.Total {
		t.Fatalf("coverage %d/%d after a source failure, want fewer than the %d offered", m.Completed, m.Total, offered)
	}
}

// scriptedSource replays a fixed script without validation (unlike
// SliceSource it can carry malformed tasks), so validation failures are
// attributable to the environment. A non-nil err is what it reports once the
// script runs out: a stream failing to read its next task, as a trace reader
// does on a malformed row. Total is the script's length, that unreadable
// row included.
type scriptedSource struct {
	tasks []workload.Task
	pos   int
	err   error
}

func (s *scriptedSource) Next() (workload.Task, bool) {
	if s.pos >= len(s.tasks) {
		return workload.Task{}, false
	}
	t := s.tasks[s.pos]
	s.pos++
	return t, true
}

func (s *scriptedSource) Total() int {
	if s.err != nil {
		return len(s.tasks) + 1
	}
	return len(s.tasks)
}

func (s *scriptedSource) Err() error { return s.err }

// failingSource offers three tasks and errors reading the third, exercising
// the Err() branch of the admit loop.
type failingSource struct{ emitted int }

func (s *failingSource) Next() (workload.Task, bool) {
	if s.emitted >= 2 {
		return workload.Task{}, false
	}
	s.emitted++
	return workload.Task{ID: s.emitted, Arrival: 0, CPU: 1, Mem: 1, Duration: 1}, true
}

func (s *failingSource) Total() int { return 3 }
func (s *failingSource) Err() error {
	if s.emitted >= 2 {
		return fmt.Errorf("backing store went away")
	}
	return nil
}

// TestSourceMidStreamFailure drives an episode from a source whose 11th pull
// fails — the read error a malformed trace row raises, or an arrival
// regression: the ten good tasks must be admitted and placed exactly as from
// a fully-valid source, and the failure must surface deterministically via
// SourceErr — run twice, the two episodes are identical.
func TestSourceMidStreamFailure(t *testing.T) {
	specs := []VMSpec{{CPU: 8, Mem: 16}, {CPU: 8, Mem: 16}}
	good := ClampTasks(workload.Lookup(workload.Google).Sample(rand.New(rand.NewSource(21)), 10), specs)
	regress := good[len(good)-1]
	regress.ID, regress.Arrival = len(good), regress.Arrival-1
	cases := map[string]func() TaskSource{
		"malformed-row": func() TaskSource {
			return &scriptedSource{tasks: good, err: errors.New("trace line 12: malformed row")}
		},
		"out-of-order": func() TaskSource {
			return &scriptedSource{tasks: append(append([]workload.Task(nil), good...), regress)}
		},
	}
	for name, source := range cases {
		t.Run(name, func(t *testing.T) {
			run := func() ([]taskRecord, error) {
				src := source()
				cfg := DefaultConfig(specs)
				cfg.MaxSteps = 500
				env, err := NewEnvSource(cfg, src)
				if err != nil {
					t.Fatal(err)
				}
				var rec recorder
				for !env.Done() {
					rec.step(env, FirstFit{}.SelectAction(env))
					checkStepInvariants(t, env)
				}
				env.Drain()
				checkCoverageShort(t, env.Metrics(), src.Total())
				return rec.recs, env.SourceErr()
			}
			recs, srcErr := run()
			if srcErr == nil {
				t.Fatal("mid-stream failure not surfaced via SourceErr")
			}
			if len(recs) != len(good) {
				t.Fatalf("placed %d tasks, want the %d valid pre-failure tasks", len(recs), len(good))
			}
			recs2, srcErr2 := run()
			if srcErr2 == nil || srcErr2.Error() != srcErr.Error() {
				t.Fatalf("shutdown not deterministic: %v vs %v", srcErr, srcErr2)
			}
			if len(recs2) != len(recs) {
				t.Fatalf("record counts differ across runs: %d vs %d", len(recs2), len(recs))
			}
			for i := range recs {
				if recs[i] != recs2[i] {
					t.Fatalf("record %d differs across runs: %+v vs %+v", i, recs[i], recs2[i])
				}
			}
		})
	}
}

func TestSourceErrPropagates(t *testing.T) {
	cfg := DefaultConfig([]VMSpec{{CPU: 4, Mem: 8}})
	cfg.MaxSteps = 100
	env, err := NewEnvSource(cfg, &failingSource{})
	if err != nil {
		t.Fatal(err)
	}
	var rec recorder
	for !env.Done() {
		rec.step(env, FirstFit{}.SelectAction(env))
	}
	env.Drain()
	if env.SourceErr() == nil {
		t.Fatal("mid-stream source error not surfaced via SourceErr")
	}
	if len(rec.recs) != 2 {
		t.Fatalf("placed %d tasks, want the 2 emitted before the failure", len(rec.recs))
	}
	checkCoverageShort(t, env.Metrics(), 3)
}
