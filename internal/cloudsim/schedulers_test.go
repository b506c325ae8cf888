package cloudsim

import (
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// Heuristic-portfolio coverage: expected placements per step on a tiny
// cluster, worked out by hand, plus determinism across repeated RunEpisode
// calls on a Reset environment.

// heuristicCluster: VM0 {4,8}, VM1 {2,2}, VM2 {8,16}; MaxCPU 8, MaxMem 16,
// resource weights 0.5/0.5 (DefaultConfig).
func heuristicCluster() []VMSpec {
	return []VMSpec{{CPU: 4, Mem: 8}, {CPU: 2, Mem: 2}, {CPU: 8, Mem: 16}}
}

func heuristicTasks() []workload.Task {
	return []workload.Task{
		{ID: 0, Arrival: 0, CPU: 2, Mem: 2, Duration: 3},
		{ID: 1, Arrival: 0, CPU: 2, Mem: 2, Duration: 3},
		{ID: 2, Arrival: 0, CPU: 4, Mem: 4, Duration: 2},
		{ID: 3, Arrival: 0, CPU: 1, Mem: 1, Duration: 1},
	}
}

// TestHeuristicPlacementsHandComputed drives each policy through the same
// four placements and pins every action. Leftover score = 0.5·leftCPU/8 +
// 0.5·leftMem/16; all four tasks place at t=0 (valid placements do not
// advance time).
func TestHeuristicPlacementsHandComputed(t *testing.T) {
	cases := []struct {
		name   string
		policy Policy
		want   []int
	}{
		// First fit scans VM indices: VM0, VM0, then t2 {4,4} skips the
		// drained VM0 (free 0) and small VM1 → VM2; t3 {1,1} → VM1.
		{"first-fit", FirstFit{}, []int{0, 0, 2, 1}},
		// Best fit minimizes leftover: t0 → VM1 (leftover 0), t1 → VM0
		// (0.3125 vs VM2's 0.8125), t2 → VM2 (only fit), t3 → VM0
		// (0.21875 vs VM2's 0.53125).
		{"best-fit", BestFit{}, []int{1, 0, 2, 0}},
		// Worst fit maximizes leftover: t0 → VM2 (0.8125), t1 → VM2
		// (0.625), t2 → VM2 again (0.25 vs VM0's 0.125), t3 → VM0
		// (0.40625 vs VM1's 0.09375).
		{"worst-fit", WorstFit{}, []int{2, 2, 2, 0}},
		// Round robin cycles: VM0, VM1, then t2 lands on VM2 and t3 wraps
		// to VM0.
		{"round-robin", &RoundRobin{}, []int{0, 1, 2, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := MustNewEnv(DefaultConfig(heuristicCluster()), heuristicTasks())
			for step, want := range tc.want {
				got := tc.policy.SelectAction(env)
				if got != want {
					t.Fatalf("step %d: %s chose action %d, want %d", step, tc.policy.Name(), got, want)
				}
				if r := env.Step(got); r <= 0 {
					t.Fatalf("step %d: expected a valid placement, reward %v", step, r)
				}
			}
			if !env.Done() {
				t.Fatal("all four tasks placed; episode should be done")
			}
		})
	}
}

// TestHeuristicWaitsWhenNothingFits pins the wait fallback for every
// policy, in both legacy and ranked modes.
func TestHeuristicWaitsWhenNothingFits(t *testing.T) {
	specs := []VMSpec{{CPU: 2, Mem: 2}, {CPU: 2, Mem: 2}, {CPU: 2, Mem: 2}}
	ranked := DefaultConfig(specs)
	ranked.TopK = 2
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"legacy", DefaultConfig(specs)},
		{"ranked", ranked},
	} {
		t.Run(mode.name, func(t *testing.T) {
			// One {2,2} task per VM plus a blocked extra head.
			var tasks []workload.Task
			for j := 0; j <= len(specs); j++ {
				tasks = append(tasks, workload.Task{ID: j, Arrival: 0, CPU: 2, Mem: 2, Duration: 9})
			}
			env := MustNewEnv(mode.cfg, tasks)
			for i := 0; i < len(env.VMs()); i++ {
				if env.Ranked() {
					env.Step(0) // slot 0 always maps to a fresh fitting VM
				} else {
					env.Step(i)
				}
			}
			// Queue still has one blocked head and every VM is full.
			if _, ok := env.HeadTask(); !ok {
				t.Fatal("expected a blocked head task")
			}
			policies := []Policy{FirstFit{}, BestFit{}, WorstFit{}, &RoundRobin{},
				RandomFit{Rng: rand.New(rand.NewSource(1))}}
			for _, p := range policies {
				if got := p.SelectAction(env); got != env.WaitAction() {
					t.Fatalf("%s chose %d on a saturated cluster, want Wait (%d)",
						p.Name(), got, env.WaitAction())
				}
			}
		})
	}
}

// TestRunEpisodeDeterministic pins determinism: repeated RunEpisode calls
// on a Reset environment (with equivalently seeded policy state) produce
// identical metrics and records, in legacy and ranked modes.
func TestRunEpisodeDeterministic(t *testing.T) {
	specs := benchCluster()
	tasks := invWorkload(specs, 200, 5)
	configs := map[string]Config{"legacy": DefaultConfig(specs)}
	ranked := DefaultConfig(specs)
	ranked.TopK = 4
	ranked.UtilBuckets = 4
	configs["ranked"] = ranked

	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			env := MustNewEnv(cfg, tasks)
			mkPolicies := func() []Policy {
				return []Policy{FirstFit{}, BestFit{}, WorstFit{}, &RoundRobin{},
					RandomFit{Rng: rand.New(rand.NewSource(7))}}
			}
			for i, p := range mkPolicies() {
				env.Reset(tasks)
				m1 := RunEpisode(env, p)
				r1 := append([]TaskRecord(nil), env.Records()...)
				env.Reset(tasks)
				m2 := RunEpisode(env, mkPolicies()[i])
				r2 := env.Records()
				if m1 != m2 {
					t.Fatalf("%s metrics diverge across reruns:\n%+v\n%+v", p.Name(), m1, m2)
				}
				if len(r1) != len(r2) {
					t.Fatalf("%s record counts diverge: %d vs %d", p.Name(), len(r1), len(r2))
				}
				for j := range r1 {
					if r1[j] != r2[j] {
						t.Fatalf("%s record %d diverges: %+v vs %+v", p.Name(), j, r1[j], r2[j])
					}
				}
			}
		})
	}
}

// scripted plays a fixed action list, then waits forever.
type scripted struct {
	actions []int
	next    int
}

func (*scripted) Name() string { return "scripted" }

func (p *scripted) SelectAction(env *Env) int {
	if p.next == len(p.actions) {
		return env.WaitAction()
	}
	p.next++
	return p.actions[p.next-1]
}

// TestRunEpisodeUnfinishedTaskHandComputed pins what Metrics says when a
// policy leaves a task queued until the step cap — today's survivorship
// semantics: response time and makespan average over the placed tasks only,
// and the task that never ran appears solely as Completed < Total. A change
// that charges unfinished tasks must change exactly these expectations.
//
// Two VMs {2 vCPU, 4 GiB}; t0 {1, 2 GiB, 2 slots} goes to VM0 and t1 {2, 4 GiB,
// 3 slots} to VM1, both at slot 0 (a placement does not advance time); t2
// fits VM0 but the policy waits. MaxSteps 4 ends the decisions at slot 2 with
// t1 still running, and the drain runs slot 3. Slot samples (mean
// utilization, Eq. 4 imbalance), taken at reset and after every advance:
// slot 0 idle (0, 0); slot 1 VM0 half full, VM1 full (0.75, 0.25); slot 2 t0
// gone (0.5, 0.5); slot 3 idle (0, 0).
func TestRunEpisodeUnfinishedTaskHandComputed(t *testing.T) {
	cfg := DefaultConfig([]VMSpec{{CPU: 2, Mem: 4}, {CPU: 2, Mem: 4}})
	cfg.MaxSteps = 4
	env := MustNewEnv(cfg, []workload.Task{
		{ID: 0, CPU: 1, Mem: 2, Duration: 2},
		{ID: 1, CPU: 2, Mem: 4, Duration: 3},
		{ID: 2, CPU: 1, Mem: 1, Duration: 1},
	})
	m := RunEpisode(env, &scripted{actions: []int{0, 1}})
	if m.Completed != 2 || m.Total != 3 || m.Steps != 4 {
		t.Fatalf("completed %d/%d in %d steps, want 2/3 in 4", m.Completed, m.Total, m.Steps)
	}
	if m.AvgResponse != 2.5 || m.Makespan != 3 {
		t.Fatalf("avg response %v, makespan %d; want (2+3)/2 = 2.5 and 3", m.AvgResponse, m.Makespan)
	}
	if m.AvgUtil != 1.25/4 || m.AvgLoadBal != 0.75/4 {
		t.Fatalf("avg util %v, avg load balance %v; want 1.25/4 and 0.75/4", m.AvgUtil, m.AvgLoadBal)
	}
}
