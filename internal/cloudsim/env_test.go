package cloudsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

func twoVMConfig() Config {
	return DefaultConfig([]VMSpec{{CPU: 4, Mem: 16}, {CPU: 8, Mem: 32}})
}

func simpleTasks() []workload.Task {
	return []workload.Task{
		{ID: 0, Arrival: 0, CPU: 2, Mem: 4, Duration: 3},
		{ID: 1, Arrival: 0, CPU: 4, Mem: 8, Duration: 2},
		{ID: 2, Arrival: 2, CPU: 1, Mem: 2, Duration: 1},
	}
}

func TestConfigValidate(t *testing.T) {
	good := twoVMConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.VMs = nil },
		func(c *Config) { c.PadVMs = 1 },
		func(c *Config) { c.MaxCPU = 0 },
		func(c *Config) { c.MaxMem = 0 },
		func(c *Config) { c.VMs = []VMSpec{{CPU: 0, Mem: 1}} },
		func(c *Config) { c.PadVCPUs = 2 }, // VM has 8 vCPUs > pad
	}
	for i, mutate := range bad {
		c := twoVMConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestEnvTruncatedDistinguishesCapFromCompletion(t *testing.T) {
	cfg := twoVMConfig()
	cfg.MaxSteps = 2
	env := MustNewEnv(cfg, simpleTasks())
	if env.Done() || env.Truncated() {
		t.Fatal("fresh episode must be neither done nor truncated")
	}
	wait := env.WaitAction()
	env.Step(wait)
	env.Step(wait)
	if !env.Done() || !env.Truncated() {
		t.Fatalf("step cap with outstanding tasks must be a truncation (done=%v truncated=%v)",
			env.Done(), env.Truncated())
	}

	// A completed workload at the same step count is a true terminal.
	cfg2 := twoVMConfig()
	cfg2.MaxSteps = 50
	env2 := MustNewEnv(cfg2, simpleTasks()[:1])
	env2.Step(1) // place the only task on the big VM
	for !env2.Done() {
		env2.Step(env2.WaitAction())
	}
	if env2.Truncated() {
		t.Fatal("a fully completed workload is terminal, not truncated")
	}
}

func TestEnvInitialState(t *testing.T) {
	env := MustNewEnv(twoVMConfig(), simpleTasks())
	if env.Now() != 0 {
		t.Fatal("clock should start at 0")
	}
	if env.QueueLen() != 2 {
		t.Fatalf("arrivals at slot 0 should be queued: %d", env.QueueLen())
	}
	pending := 0 // the peeked task plus whatever the source has not emitted yet
	if env.hasPeek {
		pending++
	}
	if !env.srcDone {
		pending += env.totalTasks - env.pulled
	}
	if pending != 1 {
		t.Fatalf("task arriving at slot 2 should be pending: %d", pending)
	}
	if env.NumActions() != 3 || env.WaitAction() != 2 {
		t.Fatalf("action space wrong: %d/%d", env.NumActions(), env.WaitAction())
	}
}

func TestValidPlacementDoesNotAdvanceTime(t *testing.T) {
	env := MustNewEnv(twoVMConfig(), simpleTasks())
	r := env.Step(0)
	if env.Now() != 0 {
		t.Fatal("valid placement must not advance the clock")
	}
	if r <= 0 {
		t.Fatalf("valid placement reward should be positive, got %v", r)
	}
	if env.QueueLen() != 1 {
		t.Fatal("head task should leave the queue")
	}
	if env.vms[0].freeCPU != 2 || env.vms[0].freeMem != 12 {
		t.Fatalf("resources not deducted: %d/%v", env.vms[0].freeCPU, env.vms[0].freeMem)
	}
}

func TestWaitAdvancesTime(t *testing.T) {
	env := MustNewEnv(twoVMConfig(), simpleTasks())
	r := env.Step(env.WaitAction())
	if env.Now() != 1 {
		t.Fatal("wait must advance the clock")
	}
	if r != lazyPenalty {
		t.Fatalf("waiting with feasible VMs must incur the lazy penalty, got %v", r)
	}
}

func TestWaitWithoutFeasiblePlacementIsFree(t *testing.T) {
	cfg := DefaultConfig([]VMSpec{{CPU: 2, Mem: 4}})
	tasks := []workload.Task{
		{ID: 0, Arrival: 0, CPU: 2, Mem: 4, Duration: 5},
		{ID: 1, Arrival: 0, CPU: 2, Mem: 4, Duration: 1},
	}
	env := MustNewEnv(cfg, tasks)
	if r := env.Step(0); r <= 0 {
		t.Fatalf("first placement should succeed, got %v", r)
	}
	// VM now full; waiting is the only sensible move and must cost nothing.
	if r := env.Step(env.WaitAction()); r != 0 {
		t.Fatalf("forced wait should be free, got %v", r)
	}
}

func TestInvalidPlacementPenalty(t *testing.T) {
	cfg := DefaultConfig([]VMSpec{{CPU: 2, Mem: 4}, {CPU: 8, Mem: 32}})
	tasks := []workload.Task{{ID: 0, Arrival: 0, CPU: 4, Mem: 8, Duration: 2}}
	env := MustNewEnv(cfg, tasks)
	r := env.Step(0) // does not fit VM 0
	if r > -1 || r < -math.E {
		t.Fatalf("invalid placement penalty %v outside [-e,-1]", r)
	}
	if env.Now() != 1 {
		t.Fatal("denied action must advance the clock")
	}
	if env.QueueLen() != 1 {
		t.Fatal("denied task must stay queued")
	}
}

func TestVoidVMPenaltyIsWorst(t *testing.T) {
	cfg := twoVMConfig()
	cfg.PadVMs = 4 // two void VM slots
	env := MustNewEnv(cfg, simpleTasks())
	r := env.Step(3) // void VM
	if math.Abs(r-(-math.E)) > 1e-12 {
		t.Fatalf("void VM penalty %v, want -e", r)
	}
}

func TestStepPanicsOnBadAction(t *testing.T) {
	env := MustNewEnv(twoVMConfig(), simpleTasks())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	env.Step(99)
}

func TestStepPanicsAfterDone(t *testing.T) {
	cfg := DefaultConfig([]VMSpec{{CPU: 4, Mem: 16}})
	env := MustNewEnv(cfg, []workload.Task{{ID: 0, Arrival: 0, CPU: 1, Mem: 1, Duration: 1}})
	env.Step(0)
	if !env.Done() {
		t.Fatal("episode should end when all tasks are placed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	env.Step(0)
}

func TestTaskLifecycleAndResponse(t *testing.T) {
	cfg := DefaultConfig([]VMSpec{{CPU: 2, Mem: 8}})
	tasks := []workload.Task{
		{ID: 0, Arrival: 0, CPU: 2, Mem: 4, Duration: 3},
		{ID: 1, Arrival: 1, CPU: 2, Mem: 4, Duration: 2},
	}
	env := MustNewEnv(cfg, tasks)
	var rec recorder
	rec.step(env, 0) // place task 0 at slot 0
	// Task 1 arrives at slot 1 but VM is busy until slot 3.
	for env.Now() < 3 {
		rec.step(env, env.WaitAction())
	}
	if env.vms[0].RunningTasks() != 0 {
		t.Fatal("task 0 should have finished by slot 3")
	}
	rec.step(env, 0) // place task 1 at slot 3 (waited 2 slots)
	env.Drain()
	recs := rec.recs
	if len(recs) != 2 {
		t.Fatalf("records %d", len(recs))
	}
	if recs[0].Response() != 3 || recs[0].Wait() != 0 {
		t.Fatalf("task0 response/wait %d/%d", recs[0].Response(), recs[0].Wait())
	}
	if recs[1].Wait() != 2 || recs[1].Response() != 4 {
		t.Fatalf("task1 response/wait %d/%d", recs[1].Response(), recs[1].Wait())
	}
	m := env.Metrics()
	if m.Makespan != 5 {
		t.Fatalf("makespan %d, want 5", m.Makespan)
	}
	if math.Abs(m.AvgResponse-3.5) > 1e-12 {
		t.Fatalf("avg response %v, want 3.5", m.AvgResponse)
	}
}

func TestResourceConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultConfig([]VMSpec{{CPU: 8, Mem: 32}, {CPU: 16, Mem: 64}})
	tasks := ClampTasks(workload.SampleDataset(workload.Google, rng, 60), cfg.VMs)
	env := MustNewEnv(cfg, tasks)
	policy := FirstFit{}
	check := func() {
		for i, vm := range env.vms {
			usedCPU, usedMem := 0, 0.0
			busyVcpus := 0
			vm.forEachRunning(func(r *running) {
				usedCPU += r.task.CPU
				usedMem += r.task.Mem
				busyVcpus += len(r.vcpus)
			})
			if vm.freeCPU+usedCPU != vm.Spec.CPU {
				t.Fatalf("VM %d CPU leak: free %d used %d spec %d", i, vm.freeCPU, usedCPU, vm.Spec.CPU)
			}
			if math.Abs(vm.freeMem+usedMem-vm.Spec.Mem) > 1e-9 {
				t.Fatalf("VM %d mem leak", i)
			}
			owned := 0
			for _, o := range vm.vcpuOwner {
				if o != -1 {
					owned++
				}
			}
			if owned != busyVcpus || owned != usedCPU {
				t.Fatalf("VM %d vCPU accounting: owned %d busy %d used %d", i, owned, busyVcpus, usedCPU)
			}
		}
	}
	for !env.Done() {
		env.Step(policy.SelectAction(env))
		check()
	}
	env.Drain()
	check()
	m := env.Metrics()
	if m.Completed != m.Total {
		t.Fatalf("first-fit should complete all tasks: %d/%d", m.Completed, m.Total)
	}
}

func TestObserveLayout(t *testing.T) {
	cfg := twoVMConfig()
	cfg.PadVMs = 3
	cfg.PadVCPUs = 8
	env := MustNewEnv(cfg, simpleTasks())
	dim := env.StateDim()
	want := 3*2 + 3*8 + 5*2
	if dim != want {
		t.Fatalf("StateDim %d, want %d", dim, want)
	}
	s := env.Observe(nil)
	if len(s) != dim {
		t.Fatalf("obs len %d", len(s))
	}
	// VM 0 free capacity: 4/8 CPU (MaxCPU=8), 16/32 mem.
	if s[0] != 0.5 || s[1] != 0.5 {
		t.Fatalf("VM0 capacities %v %v", s[0], s[1])
	}
	// VM slot 2 is void.
	if s[4] != VoidMarker || s[5] != VoidMarker {
		t.Fatalf("void VM slot should be -1: %v %v", s[4], s[5])
	}
	// vCPU block: VM0 has 4 real vCPUs (idle=0) then 4 void.
	base := 6
	for k := 0; k < 4; k++ {
		if s[base+k] != 0 {
			t.Fatalf("idle vCPU should be 0, got %v", s[base+k])
		}
	}
	for k := 4; k < 8; k++ {
		if s[base+k] != VoidMarker {
			t.Fatalf("void vCPU should be -1, got %v", s[base+k])
		}
	}
	// Queue block: first task (CPU 2, Mem 4) normalized by 8/32.
	qbase := 3*2 + 3*8
	if s[qbase] != 0.25 || s[qbase+1] != 0.125 {
		t.Fatalf("queue head encoding %v %v", s[qbase], s[qbase+1])
	}
	// Queue slot 2 onwards empty.
	if s[qbase+4] != VoidMarker {
		t.Fatal("empty queue slot should be -1")
	}
}

func TestObserveProgress(t *testing.T) {
	cfg := twoVMConfig()
	env := MustNewEnv(cfg, simpleTasks())
	env.Step(0) // place task 0 (CPU 2, duration 3) on VM 0 at slot 0
	s := env.Observe(nil)
	base := 2 * 2 // after S^VM block (PadVMs=2)
	// Two busy vCPUs with progress 1/3 (slot 0 counts as in progress).
	if math.Abs(s[base]-1.0/3) > 1e-12 || math.Abs(s[base+1]-1.0/3) > 1e-12 {
		t.Fatalf("busy vCPU progress %v %v, want 1/3", s[base], s[base+1])
	}
	if s[base+2] != 0 {
		t.Fatal("free vCPU should be 0")
	}
}

func TestObserveReusesBuffer(t *testing.T) {
	env := MustNewEnv(twoVMConfig(), simpleTasks())
	buf := make([]float64, env.StateDim())
	got := env.Observe(buf)
	if &got[0] != &buf[0] {
		t.Fatal("Observe should reuse a large-enough buffer")
	}
}

func TestFeasibleActions(t *testing.T) {
	cfg := DefaultConfig([]VMSpec{{CPU: 2, Mem: 4}, {CPU: 8, Mem: 32}})
	tasks := []workload.Task{{ID: 0, Arrival: 0, CPU: 4, Mem: 8, Duration: 2}}
	env := MustNewEnv(cfg, tasks)
	mask := env.FeasibleActions()
	if mask[0] {
		t.Fatal("VM0 should not fit")
	}
	if !mask[1] || !mask[2] {
		t.Fatal("VM1 and wait should be feasible")
	}
}

func TestDoneOnMaxSteps(t *testing.T) {
	cfg := DefaultConfig([]VMSpec{{CPU: 1, Mem: 1}})
	cfg.MaxSteps = 5
	// A task that can never fit keeps the queue blocked.
	tasks := []workload.Task{{ID: 0, Arrival: 0, CPU: 1, Mem: 2, Duration: 1}}
	env := MustNewEnv(cfg, tasks)
	steps := 0
	for !env.Done() {
		env.Step(env.WaitAction())
		steps++
		if steps > 100 {
			t.Fatal("episode did not terminate")
		}
	}
	if steps != 5 {
		t.Fatalf("expected cap at 5 steps, took %d", steps)
	}
	if m := env.Metrics(); m.Completed != 0 {
		t.Fatal("blocked task should not complete")
	}
}

func TestClampTasks(t *testing.T) {
	vms := []VMSpec{{CPU: 4, Mem: 8}, {CPU: 8, Mem: 4}}
	tasks := []workload.Task{{CPU: 16, Mem: 32}, {CPU: 2, Mem: 2}}
	out := ClampTasks(tasks, vms)
	if !fitsAny(out[0], vms) {
		t.Fatalf("clamped task must fit some VM: %+v", out[0])
	}
	if out[0].CPU != 4 || out[0].Mem != 8 {
		t.Fatalf("clamp wrong: %+v", out[0])
	}
	if out[1].CPU != 2 || out[1].Mem != 2 {
		t.Fatal("small task should be untouched")
	}
	if tasks[0].CPU != 16 {
		t.Fatal("ClampTasks must not mutate input")
	}
}

func TestLoadBalanceZeroWhenUniform(t *testing.T) {
	cfg := DefaultConfig([]VMSpec{{CPU: 4, Mem: 16}, {CPU: 4, Mem: 16}})
	env := MustNewEnv(cfg, nil)
	if lb := env.loadBalance(); lb != 0 {
		t.Fatalf("identical idle VMs should be perfectly balanced, got %v", lb)
	}
}

func TestLoadBalanceIncreasesWithImbalance(t *testing.T) {
	cfg := DefaultConfig([]VMSpec{{CPU: 4, Mem: 16}, {CPU: 4, Mem: 16}})
	tasks := []workload.Task{{ID: 0, Arrival: 0, CPU: 4, Mem: 16, Duration: 5}}
	env := MustNewEnv(cfg, tasks)
	before := env.loadBalance()
	env.Step(0)
	if env.loadBalance() <= before {
		t.Fatal("loading one VM fully should worsen balance")
	}
}

func TestResetRestoresCleanState(t *testing.T) {
	env := MustNewEnv(twoVMConfig(), simpleTasks())
	env.Step(0)
	env.Step(env.WaitAction())
	env.Reset(simpleTasks())
	if env.Now() != 0 || env.Metrics().Completed != 0 || env.QueueLen() != 2 {
		t.Fatal("Reset did not restore initial state")
	}
	for _, vm := range env.vms {
		if vm.freeCPU != vm.Spec.CPU {
			t.Fatal("Reset left resources allocated")
		}
	}
}

func TestHeuristicPoliciesCompleteRealWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := DefaultConfig([]VMSpec{{CPU: 8, Mem: 64}, {CPU: 16, Mem: 128}, {CPU: 32, Mem: 256}})
	base := ClampTasks(workload.SampleDataset(workload.Alibaba2017, rng, 120), cfg.VMs)
	policies := []Policy{FirstFit{}, BestFit{}, WorstFit{}, RandomFit{Rng: rng}}
	for _, p := range policies {
		env := MustNewEnv(cfg, base)
		m := RunEpisode(env, p)
		if m.Completed != m.Total {
			t.Errorf("%s completed %d/%d", p.Name(), m.Completed, m.Total)
		}
		if m.AvgResponse <= 0 || m.Makespan <= 0 {
			t.Errorf("%s produced degenerate metrics %+v", p.Name(), m)
		}
		if m.AvgUtil < 0 || m.AvgUtil > 1 {
			t.Errorf("%s utilization out of range: %v", p.Name(), m.AvgUtil)
		}
	}
}

func TestWorstFitBalancesBetterThanFirstFit(t *testing.T) {
	// Spreading policy should produce lower time-averaged imbalance than
	// packing everything onto the first VM, on a uniform cluster.
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultConfig([]VMSpec{{CPU: 16, Mem: 64}, {CPU: 16, Mem: 64}, {CPU: 16, Mem: 64}})
	tasks := ClampTasks(workload.SampleDataset(workload.Google, rng, 150), cfg.VMs)
	ff := RunEpisode(MustNewEnv(cfg, tasks), FirstFit{})
	wf := RunEpisode(MustNewEnv(cfg, tasks), WorstFit{})
	if wf.AvgLoadBal >= ff.AvgLoadBal {
		t.Fatalf("worst-fit balance %v should beat first-fit %v", wf.AvgLoadBal, ff.AvgLoadBal)
	}
}

func TestPropEpisodeInvariants(t *testing.T) {
	// For random workloads and clusters: every record has non-negative wait,
	// response >= duration, all placements respected capacity, and when the
	// step cap is generous first-fit completes everything.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		specs := []VMSpec{
			{CPU: 4 + rng.Intn(12), Mem: 16 + 16*float64(rng.Intn(8))},
			{CPU: 8 + rng.Intn(24), Mem: 32 + 32*float64(rng.Intn(8))},
		}
		cfg := DefaultConfig(specs)
		cfg.MaxSteps = 200000 // genuinely generous: long HPC jobs on 2 VMs wait a lot
		id := workload.AllDatasets()[rng.Intn(workload.NumDatasets)]
		tasks := ClampTasks(workload.SampleDataset(id, rng, 40), specs)
		env := MustNewEnv(cfg, tasks)
		var rec recorder
		m := rec.run(env, FirstFit{})
		if m.Completed != m.Total {
			return false
		}
		for _, r := range rec.recs {
			if r.Wait() < 0 || r.Response() < r.Task.Duration {
				return false
			}
		}
		return m.AvgUtil >= 0 && m.AvgUtil <= 1 && m.AvgLoadBal >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPlacementRewardBounds(t *testing.T) {
	// ρ·(0,1] + (1-ρ)·(0,1] placement rewards must lie in (0, 1].
	rng := rand.New(rand.NewSource(4))
	cfg := DefaultConfig([]VMSpec{{CPU: 8, Mem: 64}, {CPU: 16, Mem: 128}})
	tasks := ClampTasks(workload.SampleDataset(workload.KVM2019, rng, 80), cfg.VMs)
	env := MustNewEnv(cfg, tasks)
	p := FirstFit{}
	for !env.Done() {
		a := p.SelectAction(env)
		r := env.Step(a)
		if a != env.WaitAction() && a < len(env.vms) {
			if r > 1.0000001 {
				t.Fatalf("placement reward %v > 1", r)
			}
		}
	}
}
