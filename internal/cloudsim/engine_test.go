package cloudsim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// TestRetirementOrderDeterministic pins the determinism fix of the
// event-driven engine. Two tasks finish on the same VM in the same slot;
// their memory sizes are chosen so that adding the freed amounts back in
// different orders yields different float64 results. The old map-backed
// store retired same-slot tasks in Go map-iteration order, so freeMem could
// come out as either value depending on the run — the completion heap
// retires in (finish slot, task ID) order, always.
func TestRetirementOrderDeterministic(t *testing.T) {
	const memA, memB = 0.1, 3.3 // task 0 and task 1 memory, GiB
	// freeMem after both placements, then freed in ID order / reverse order.
	base := (16.0 - memA) - memB
	idOrder := (base + memA) + memB
	revOrder := (base + memB) + memA
	if idOrder == revOrder {
		t.Fatal("test constants are not order-sensitive; pick different memory sizes")
	}

	cfg := DefaultConfig([]VMSpec{{CPU: 4, Mem: 16}})
	tasks := []workload.Task{
		{ID: 0, Arrival: 0, CPU: 1, Mem: memA, Duration: 2},
		{ID: 1, Arrival: 0, CPU: 1, Mem: memB, Duration: 2},
	}
	for trial := 0; trial < 100; trial++ {
		env := MustNewEnv(cfg, tasks)
		env.Step(0) // place task 0 at slot 0, finishes at slot 2
		env.Step(0) // place task 1 at slot 0, finishes at slot 2
		env.Drain()
		got := env.vms[0].freeMem
		if got != idOrder {
			t.Fatalf("trial %d: freeMem %.20g, want ID-order accumulation %.20g (reverse order gives %.20g)",
				trial, got, idOrder, revOrder)
		}
	}
}

// TestCompletionHeapOrder checks the heap primitive directly: pops come out
// sorted by (finish, task ID) regardless of push order.
func TestCompletionHeapOrder(t *testing.T) {
	e := &Env{}
	in := []completion{
		{finish: 5, id: 9}, {finish: 3, id: 2}, {finish: 5, id: 1},
		{finish: 1, id: 7}, {finish: 3, id: 0}, {finish: 5, id: 4},
	}
	for _, c := range in {
		e.heapPush(c)
	}
	prev := completion{finish: -1, id: -1}
	for range in {
		c := e.heapPop()
		if completionLess(c, prev) {
			t.Fatalf("heap popped %v after %v", c, prev)
		}
		prev = c
	}
	if len(e.heap) != 0 {
		t.Fatalf("heap not drained: %d left", len(e.heap))
	}
}

// TestQueueCursorLifecycle exercises the cursor-indexed waiting and pending
// queues: FIFO order across arrivals and placements, plus the cursor resets
// that let the backing arrays be reused instead of pinned by re-slicing.
func TestQueueCursorLifecycle(t *testing.T) {
	const n = 200
	cfg := DefaultConfig([]VMSpec{{CPU: 64, Mem: 512}})
	tasks := make([]workload.Task, n)
	for i := range tasks {
		tasks[i] = workload.Task{ID: i, Arrival: i / 50, CPU: 1, Mem: 1, Duration: 1}
	}
	env := MustNewEnv(cfg, tasks)
	var rec recorder
	for !env.Done() {
		if _, ok := env.HeadTask(); ok && env.vms[0].Fits(mustHead(env)) {
			rec.step(env, 0)
		} else {
			rec.step(env, env.WaitAction())
		}
	}
	recs := rec.recs
	if len(recs) != n {
		t.Fatalf("completed %d, want %d", len(recs), n)
	}
	// FIFO: placement order must follow queue order, arrival wave by arrival
	// wave, so starts are non-decreasing.
	for i := 1; i < len(recs); i++ {
		if recs[i].Start < recs[i-1].Start {
			t.Fatalf("placements out of order: record %d starts at %d after %d",
				i, recs[i].Start, recs[i-1].Start)
		}
	}
	// Cursors must have been reset when their queues drained, so the
	// buffers are reusable rather than re-sliced away.
	if env.qhead != 0 || len(env.queue) != 0 {
		t.Fatalf("waiting queue not compacted: qhead=%d len=%d", env.qhead, len(env.queue))
	}
	if !env.srcDone || env.hasPeek {
		t.Fatalf("source not drained: srcDone=%v hasPeek=%v", env.srcDone, env.hasPeek)
	}
	if cap(env.queue) > 4*n {
		t.Fatalf("queue backing array grew unboundedly: cap %d", cap(env.queue))
	}
}

func mustHead(env *Env) workload.Task {
	h, ok := env.HeadTask()
	if !ok {
		panic("no head task")
	}
	return h
}

// TestStepZeroAllocSteadyState pins the engine-side half of the rollout
// fast path in both slot layouts: after one warm episode, a whole further
// episode — Observe into a reused buffer, FeasibleActionsInto into a reused
// mask, action choice and Step at every decision, then the in-place Reset
// (candidate index included) — allocates nothing. The unit is the episode,
// not the step: AllocsPerRun truncates, and a reset that allocated would
// vanish when averaged over a few hundred steps.
func TestStepZeroAllocSteadyState(t *testing.T) {
	for _, v := range benchViews {
		t.Run(v.name, func(t *testing.T) {
			cfg := v.cfg()
			tasks := benchWorkload(cfg.VMs, 200)
			env := MustNewEnv(cfg, tasks)
			buf := make([]float64, env.StateDim())
			mask := make([]bool, env.NumActions())
			episode := func() {
				for !env.Done() {
					buf = env.Observe(buf)
					mask = env.FeasibleActionsInto(mask)
					env.Step(benchFirstFit(env))
				}
				env.Reset(tasks)
			}
			episode() // warm: grow every internal buffer
			if allocs := testing.AllocsPerRun(3, episode); allocs != 0 {
				t.Fatalf("a steady-state episode and its reset allocate %.0f objects, want 0", allocs)
			}
		})
	}
}

// scratchLoadBalance recomputes Eq. (4) from the VM free counters alone,
// with the same summation order as Env.loadBalance but none of its cached
// inputs — the independent reference the cache is checked against.
func scratchLoadBalance(cfg Config, vms []*VM) float64 {
	n := float64(len(vms))
	total := 0.0
	for i := 0; i < NumResources; i++ {
		avg := 0.0
		for _, vm := range vms {
			avg += 1 - scratchUtil(vm, i)
		}
		avg /= n
		variance := 0.0
		for _, vm := range vms {
			d := (1 - scratchUtil(vm, i)) - avg
			variance += d * d
		}
		total += resourceWeights[i] * math.Sqrt(variance/n)
	}
	return total
}

func scratchUtil(v *VM, resource int) float64 {
	switch resource {
	case 0:
		if v.Spec.CPU == 0 {
			return 0
		}
		return float64(v.Spec.CPU-v.freeCPU) / float64(v.Spec.CPU)
	default:
		if v.Spec.Mem == 0 {
			return 0
		}
		return (v.Spec.Mem - v.freeMem) / v.Spec.Mem
	}
}

// TestCachedStatsMatchScratchRecompute drives a seeded episode on a 3-VM
// cluster and, after every step, checks that the cached utilization /
// remaining fractions and the load-balance value read from them are
// bit-equal to a from-scratch recompute off the raw free counters. It also
// folds the per-slot accumulators (util, load-balance, energy, cost)
// independently and requires bit-equality at the end.
func TestCachedStatsMatchScratchRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := DefaultConfig([]VMSpec{{CPU: 4, Mem: 16}, {CPU: 8, Mem: 32}, {CPU: 16, Mem: 64}})
	tasks := ClampTasks(workload.SampleDataset(workload.Google, rng, 80), cfg.VMs)
	env := MustNewEnv(cfg, tasks)

	// Shadow accumulators, folded exactly like accumulateSlotStats.
	var utilSum [NumResources]float64
	loadBalSum, energySum, costSum := 0.0, 0.0, 0.0
	slots := 0
	accumulate := func() {
		for i := 0; i < NumResources; i++ {
			s := 0.0
			for _, vm := range env.vms {
				s += scratchUtil(vm, i)
			}
			utilSum[i] += s / float64(len(env.vms))
		}
		loadBalSum += scratchLoadBalance(cfg, env.vms)
		for i, vm := range env.vms {
			busy := vm.RunningTasks() > 0
			energySum += draw(scratchUtil(vm, 0), busy)
			if busy {
				costSum += env.vmPrice(i)
			}
		}
		slots++
	}
	accumulate() // mirror the slot-0 accumulation done by Reset

	check := func(step int) {
		for i, vm := range env.vms {
			for r := 0; r < NumResources; r++ {
				if vm.util[r] != scratchUtil(vm, r) {
					t.Fatalf("step %d VM %d: cached util[%d]=%v, scratch %v",
						step, i, r, vm.util[r], scratchUtil(vm, r))
				}
				if vm.rem[r] != 1-scratchUtil(vm, r) {
					t.Fatalf("step %d VM %d: cached rem[%d]=%v, scratch %v",
						step, i, r, vm.rem[r], 1-scratchUtil(vm, r))
				}
			}
		}
		if got, want := env.loadBalance(), scratchLoadBalance(cfg, env.vms); got != want {
			t.Fatalf("step %d: cached loadBalance %v, scratch %v", step, got, want)
		}
	}

	p := FirstFit{}
	step := 0
	for !env.Done() {
		before := env.now
		env.Step(p.SelectAction(env))
		step++
		if env.now != before { // time advanced: fold one slot into the shadow
			accumulate()
		}
		check(step)
	}
	for len(env.heap) > 0 {
		env.advanceTime()
		accumulate()
		check(step)
	}

	if slots != env.slots {
		t.Fatalf("shadow folded %d slots, env %d", slots, env.slots)
	}
	for i := 0; i < NumResources; i++ {
		if utilSum[i] != env.utilSum[i] {
			t.Fatalf("utilSum[%d]: shadow %v, env %v", i, utilSum[i], env.utilSum[i])
		}
	}
	if loadBalSum != env.loadBalSum {
		t.Fatalf("loadBalSum: shadow %v, env %v", loadBalSum, env.loadBalSum)
	}
	if energySum != env.energySum {
		t.Fatalf("energySum: shadow %v, env %v", energySum, env.energySum)
	}
	if costSum != env.costSum {
		t.Fatalf("costSum: shadow %v, env %v", costSum, env.costSum)
	}
}

// TestSlotStatsHandComputed pins the per-slot accounting against a
// hand-computed reference table on a tiny 3-VM scenario with
// paper-friendly numbers (Eqs. 4, 24, 25 and the energy/cost models).
func TestSlotStatsHandComputed(t *testing.T) {
	cfg := DefaultConfig([]VMSpec{{CPU: 2, Mem: 8}, {CPU: 2, Mem: 8}, {CPU: 4, Mem: 16}})
	tasks := []workload.Task{
		{ID: 0, Arrival: 0, CPU: 2, Mem: 8, Duration: 3}, // fills VM 0 exactly
		{ID: 1, Arrival: 0, CPU: 2, Mem: 4, Duration: 2}, // half of VM 2's CPU
	}
	env := MustNewEnv(cfg, tasks)

	// Slot 0 pre-placement: empty cluster, perfectly balanced.
	if lb := env.loadBalance(); lb != 0 {
		t.Fatalf("empty cluster load balance %v, want 0", lb)
	}

	env.Step(0) // task 0 -> VM 0, both resources fully used
	// Remaining fractions now (0, 1, 1) for CPU and memory alike:
	// avg = 2/3, variance = ((0-2/3)^2 + (1/3)^2 + (1/3)^2)/3 = 2/9.
	{
		avg := (0.0 + 1.0 + 1.0) / 3.0
		v := ((0-avg)*(0-avg) + (1-avg)*(1-avg) + (1-avg)*(1-avg)) / 3.0
		want := 0.5*math.Sqrt(v) + 0.5*math.Sqrt(v)
		if got := env.loadBalance(); got != want {
			t.Fatalf("load balance after first placement: %v, want %v", got, want)
		}
	}

	env.Step(2) // task 1 -> VM 2: CPU rem 0.5, mem rem 12/16 = 0.75
	{
		cpuAvg := (0.0 + 1.0 + 0.5) / 3.0
		cpuVar := ((0-cpuAvg)*(0-cpuAvg) + (1-cpuAvg)*(1-cpuAvg) + (0.5-cpuAvg)*(0.5-cpuAvg)) / 3.0
		memAvg := (0.0 + 1.0 + 0.75) / 3.0
		memVar := ((0-memAvg)*(0-memAvg) + (1-memAvg)*(1-memAvg) + (0.75-memAvg)*(0.75-memAvg)) / 3.0
		want := 0.5*math.Sqrt(cpuVar) + 0.5*math.Sqrt(memVar)
		if got := env.loadBalance(); got != want {
			t.Fatalf("load balance after second placement: %v, want %v", got, want)
		}
	}

	// Both tasks are placed, so the episode is complete; advance the clock
	// directly to fold slot 1 (both tasks still running) into the stats.
	env.advanceTime()
	// The slot-1 accumulation sees VM0 fully busy, VM1 idle, VM2 half CPU /
	// quarter mem. Slot 0 (accumulated at Reset) saw an empty cluster.
	{
		wantCPUUtil := (1.0 + 0.0 + 0.5) / 3.0
		wantMemUtil := (1.0 + 0.0 + 0.25) / 3.0
		if env.utilSum[0] != wantCPUUtil || env.utilSum[1] != wantMemUtil {
			t.Fatalf("utilSum (%v, %v), want (%v, %v)",
				env.utilSum[0], env.utilSum[1], wantCPUUtil, wantMemUtil)
		}
		// Energy: VM0 at full CPU draws peak 300 W; VM1 idle draws 0;
		// VM2 at half CPU draws 100 + 0.5*200 = 200 W.
		if env.energySum != 500 {
			t.Fatalf("energySum %v, want 500", env.energySum)
		}
		// Cost: busy VMs bill capacity-derived prices, VM0 = 2 + 8/8 = 3,
		// VM2 = 4 + 16/8 = 6.
		if env.costSum != 9 {
			t.Fatalf("costSum %v, want 9", env.costSum)
		}
		if env.slots != 2 {
			t.Fatalf("slots %d, want 2", env.slots)
		}
	}

	// Drain the schedule: task 1 finishes at slot 2, task 0 at slot 3.
	env.Drain()
	m := env.Metrics()
	if m.Makespan != 3 || m.Completed != 2 {
		t.Fatalf("makespan %d completed %d, want 3 and 2", m.Makespan, m.Completed)
	}
	// AvgUtil (Eq. 24): mean over 4 slots (0..3) of the weighted util.
	// Slot 0: 0. Slot 1: as above. Slot 2: task 1 finished -> VM2 idle.
	// Slot 3: task 0 finished -> all idle.
	{
		slot1 := 0.5*((1.0+0.0+0.5)/3.0) + 0.5*((1.0+0.0+0.25)/3.0)
		slot2 := 0.5*(1.0/3.0) + 0.5*(1.0/3.0)
		want := (slot1 + slot2) / 4.0
		if math.Abs(m.AvgUtil-want) > 1e-15 {
			t.Fatalf("AvgUtil %v, want %v", m.AvgUtil, want)
		}
	}
}

// naiveObserve re-encodes the observation position by position from the slot
// view alone: slot s is whatever VM Candidates()[s] names, void when it names
// none. (The aggregate block is not part of the slot view; it is taken from
// writeAgg so that an Observe that forgets to write it still fails.)
func naiveObserve(env *Env) []float64 {
	cfg := env.cfg
	slots := env.WaitAction()
	out := make([]float64, 0, env.StateDim())
	for s := 0; s < slots; s++ {
		if vi := int(env.Candidates()[s]); vi >= 0 {
			out = append(out, float64(env.vms[vi].freeCPU)/float64(cfg.MaxCPU), env.vms[vi].freeMem/cfg.MaxMem)
		} else {
			out = append(out, VoidMarker, VoidMarker)
		}
	}
	for s := 0; s < slots; s++ {
		vi := int(env.Candidates()[s])
		for k := 0; k < cfg.PadVCPUs; k++ {
			if vi < 0 || k >= env.vms[vi].Spec.CPU {
				out = append(out, VoidMarker)
			} else {
				out = append(out, env.vms[vi].progress(k, env.now))
			}
		}
	}
	for q := 0; q < queueDepth; q++ {
		if q < env.QueueLen() {
			tk := env.queue[env.qhead+q]
			out = append(out, float64(tk.CPU)/float64(cfg.MaxCPU), tk.Mem/cfg.MaxMem)
		} else {
			out = append(out, VoidMarker, VoidMarker)
		}
	}
	if n := aggDim(cfg); n > 0 {
		out = out[:len(out)+n]
		env.writeAgg(out[len(out)-n:])
	}
	return out
}

// TestObserveMatchesNaiveEncoding pins the one Observe body and the one mask
// to the slot view, in every layout: on every step of a seeded episode (a
// mix of first-fit, random placements and waits) the observation written
// into a reused, poisoned buffer must be bit-identical to the naive
// re-encoding driven by Candidates() — so a skipped void marker or a value
// left over from the previous candidate set shows — and slot s must be
// feasible exactly when Candidates()[s] names a VM that fits the head task.
func TestObserveMatchesNaiveEncoding(t *testing.T) {
	small := []VMSpec{{CPU: 4, Mem: 16}, {CPU: 8, Mem: 32}}
	views := []struct {
		name   string
		ranked bool
		cfg    func() Config
	}{
		{"per-vm-void-slot", false, func() Config {
			cfg := DefaultConfig(small)
			cfg.PadVMs = 3
			return cfg
		}},
		{"identity", false, func() Config {
			cfg := DefaultConfig(small)
			cfg.TopK = 3 // ≥ len(VMs): slot i = VM i, slot 2 void
			return cfg
		}},
		{"ranked", true, func() Config {
			cfg := DefaultConfig(goldenCluster())
			cfg.TopK = 3
			return cfg
		}},
		{"ranked-util-buckets", true, func() Config {
			cfg := DefaultConfig(goldenCluster())
			cfg.TopK = 3
			cfg.UtilBuckets = 4
			return cfg
		}},
	}
	for _, v := range views {
		t.Run(v.name, func(t *testing.T) {
			cfg := v.cfg()
			rng := rand.New(rand.NewSource(11))
			tasks := ClampTasks(workload.SampleDataset(workload.Alibaba2017, rng, 50), cfg.VMs)
			env := MustNewEnv(cfg, tasks)
			if env.ranked != v.ranked {
				t.Fatalf("ranked = %v, want %v", env.ranked, v.ranked)
			}
			buf := make([]float64, env.StateDim())
			for step := 0; !env.Done(); step++ {
				for i := range buf {
					buf[i] = 7.5 // poison: every position must be written
				}
				buf = env.Observe(buf)
				want := naiveObserve(env)
				if len(buf) != len(want) {
					t.Fatalf("step %d: observation length %d, naive %d", step, len(buf), len(want))
				}
				for i := range want {
					if buf[i] != want[i] {
						t.Fatalf("step %d: observation mismatch at position %d: fast %v, naive %v", step, i, buf[i], want[i])
					}
				}
				head, hasHead := env.HeadTask()
				mask := env.FeasibleActions()
				for s := 0; s < env.WaitAction(); s++ {
					vi := int(env.Candidates()[s])
					if fits := hasHead && vi >= 0 && env.vms[vi].Fits(head); mask[s] != fits {
						t.Fatalf("step %d: mask[%d] = %v but Candidates()[s] = %d, fits = %v", step, s, mask[s], vi, fits)
					}
				}
				if !mask[env.WaitAction()] {
					t.Fatalf("step %d: Wait masked out", step)
				}
				action := FirstFit{}.SelectAction(env)
				if rng.Intn(4) == 0 {
					action = rng.Intn(env.NumActions())
				}
				env.Step(action)
			}
		})
	}
}

// TestFeasibleActionsIntoMatches checks the Into variant against the
// allocating entry point and the scratch-reuse contract.
func TestFeasibleActionsIntoMatches(t *testing.T) {
	cfg := DefaultConfig([]VMSpec{{CPU: 2, Mem: 4}, {CPU: 8, Mem: 32}})
	tasks := []workload.Task{{ID: 0, Arrival: 0, CPU: 4, Mem: 8, Duration: 2}}
	env := MustNewEnv(cfg, tasks)
	a := env.FeasibleActions()
	b := env.FeasibleActionsInto(make([]bool, env.NumActions()))
	if len(a) != len(b) {
		t.Fatalf("mask lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("mask mismatch at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if &env.FeasibleActions()[0] != &a[0] {
		t.Fatal("FeasibleActions should reuse its scratch mask")
	}
}
