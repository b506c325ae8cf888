package cloudsim

import (
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// sloTestTasks is a 3-task episode, one task per service class, on a single
// 4-vCPU VM. The forced serialization makes every wait hand-computable.
func sloTestTasks() []workload.Task {
	return []workload.Task{
		{ID: 0, Arrival: 0, CPU: 4, Mem: 8, Duration: 2, SLO: workload.SLOCritical},
		{ID: 1, Arrival: 0, CPU: 4, Mem: 8, Duration: 1, SLO: workload.SLOStandard},
		{ID: 2, Arrival: 1, CPU: 2, Mem: 4, Duration: 3, SLO: workload.SLOBestEffort},
	}
}

// runSLOEpisode drives the canonical schedule: place the head whenever it
// fits the single VM, otherwise wait.
func runSLOEpisode(t *testing.T, cfg Config) *Env {
	t.Helper()
	env := MustNewEnv(cfg, sloTestTasks())
	for !env.Done() {
		head, ok := env.HeadTask()
		if ok && env.vms[0].Fits(head) {
			env.Step(0)
		} else {
			env.Step(env.WaitAction())
		}
	}
	env.Drain()
	return env
}

// TestPerSLOMetricsHandComputed pins Metrics.PerSLO against a schedule
// worked out by hand:
//
//	t0 (critical, 4 vCPU, dur 2): placed at slot 0        -> wait 0
//	t1 (standard, 4 vCPU, dur 1): waits for t0, slot 2    -> wait 2
//	t2 (best-effort, 2 vCPU, dur 3): waits for t1, slot 3 -> wait 2
//
// With wait targets {best-effort: 0, standard: 1, critical: 1}, only t1
// (wait 2 > 1) violates.
func TestPerSLOMetricsHandComputed(t *testing.T) {
	cfg := DefaultConfig([]VMSpec{{CPU: 4, Mem: 16}})
	cfg.Objectives.SLOWaitTarget = [workload.NumSLOClasses]int{0, 1, 1}
	env := runSLOEpisode(t, cfg)
	m := env.Metrics()
	if m.Completed != 3 {
		t.Fatalf("completed %d tasks, want 3", m.Completed)
	}
	want := [workload.NumSLOClasses]SLOMetrics{
		{Class: workload.SLOBestEffort, Completed: 1, AvgWait: 2, WaitP50: 2, WaitP95: 2, Violations: 0},
		{Class: workload.SLOStandard, Completed: 1, AvgWait: 2, WaitP50: 2, WaitP95: 2, Violations: 1},
		{Class: workload.SLOCritical, Completed: 1, AvgWait: 0, WaitP50: 0, WaitP95: 0, Violations: 0},
	}
	if m.PerSLO != want {
		t.Fatalf("PerSLO = %+v\nwant %+v", m.PerSLO, want)
	}
}

// TestWaitPercentileHandComputed pins the wait histogram's interpolating
// percentile, the waits added out of order.
func TestWaitPercentileHandComputed(t *testing.T) {
	var h waitHist
	for _, w := range []int{10, 1, 2} {
		h.add(w)
	}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.5, 2}, {1, 10},
		{0.95, 9.2}, // pos 1.9: 2 + 0.9*(10-2)
		{0.25, 1.5}, // pos 0.5: 1 + 0.5*(2-1)
		{0.75, 6.0}, // pos 1.5: 2 + 0.5*(10-2)
	}
	for _, c := range cases {
		if got := h.percentile(c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestSLOWaitCostShapesReward checks the shaping term is exactly
// cost·wait, per class, on top of the unshaped reward.
func TestSLOWaitCostShapesReward(t *testing.T) {
	base := DefaultConfig([]VMSpec{{CPU: 4, Mem: 16}})
	shaped := base
	shaped.Objectives.SLOWaitCost = [workload.NumSLOClasses]float64{0.25, 0.5, 4}

	envA := MustNewEnv(base, sloTestTasks())
	envB := MustNewEnv(shaped, sloTestTasks())
	// The hand-computed schedule: waits are t0 (critical) 0, t1 (standard)
	// 2, t2 (best-effort) 2; shaping shifts the two delayed placements by
	// 0.5·2 and 0.25·2.
	wantShift := []float64{4 * 0, 0.5 * 2, 0.25 * 2}
	placements := 0
	for !envA.Done() {
		head, ok := envA.HeadTask()
		act := envA.WaitAction()
		if ok && envA.vms[0].Fits(head) {
			act = 0
		}
		ra := envA.Step(act)
		rb := envB.Step(act)
		if act != envA.WaitAction() {
			if rb != ra-wantShift[placements] {
				t.Fatalf("placement %d: shaped reward %v, want %v - %v", placements, rb, ra, wantShift[placements])
			}
			placements++
		} else if rb != ra {
			t.Fatalf("wait rewards diverged: %v vs %v", rb, ra)
		}
	}
	if placements != 3 {
		t.Fatalf("made %d placements, want 3", placements)
	}
}

// TestSLOZeroIsBitIdentical is the degradation golden for the SLO layer:
// with all SLO weights zero, a seeded episode over SLO-tagged tasks yields
// exactly the same rewards and (non-PerSLO) metrics as an environment that
// never heard of service classes — and wait targets alone only add
// violation counts, never touching rewards.
func TestSLOZeroIsBitIdentical(t *testing.T) {
	specs := []VMSpec{{CPU: 8, Mem: 32}, {CPU: 4, Mem: 16}, {CPU: 16, Mem: 64}}
	tasks := ClampTasks(workload.SampleDataset(workload.K8S, rand.New(rand.NewSource(3)), 120), specs)

	plain := DefaultConfig(specs)
	targeted := DefaultConfig(specs)
	targeted.Objectives.SLOWaitTarget = [workload.NumSLOClasses]int{5, 5, 5}

	envA := MustNewEnv(plain, tasks)
	envB := MustNewEnv(targeted, tasks)
	rng := rand.New(rand.NewSource(7))
	for !envA.Done() {
		act := rng.Intn(envA.NumActions())
		ra, rb := envA.Step(act), envB.Step(act)
		if ra != rb {
			t.Fatalf("rewards diverged under zero SLO cost: %v vs %v", ra, rb)
		}
	}
	envA.Drain()
	envB.Drain()
	ma, mb := envA.Metrics(), envB.Metrics()
	ma.PerSLO, mb.PerSLO = [workload.NumSLOClasses]SLOMetrics{}, [workload.NumSLOClasses]SLOMetrics{}
	if ma != mb {
		t.Fatalf("metrics diverged under zero SLO cost:\n%+v\n%+v", ma, mb)
	}
}

// TestSLOIndexClampsUnknownClasses checks out-of-range classes in
// hand-built traces are counted (and shaped) as best-effort.
func TestSLOIndexClampsUnknownClasses(t *testing.T) {
	if sloIndex(workload.SLOClass(-2)) != 0 || sloIndex(workload.SLOClass(99)) != 0 {
		t.Fatal("out-of-range classes must clamp to best-effort")
	}
	cfg := DefaultConfig([]VMSpec{{CPU: 4, Mem: 16}})
	tasks := []workload.Task{{ID: 0, Arrival: 0, CPU: 1, Mem: 1, Duration: 1, SLO: workload.SLOClass(99)}}
	env := MustNewEnv(cfg, tasks)
	env.Step(0)
	env.Drain()
	m := env.Metrics()
	if m.PerSLO[0].Completed != 1 {
		t.Fatalf("clamped task not counted as best-effort: %+v", m.PerSLO)
	}
}

// TestSpecSourceMatchesSample pins NewSpecSource's source against the
// materialized ClampTasks(Compiled.Sample(...)) idiom.
func TestSpecSourceMatchesSample(t *testing.T) {
	spec, err := workload.PresetSpec(workload.Google)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	specs := []VMSpec{{CPU: 2, Mem: 4}, {CPU: 4, Mem: 8}}
	want := ClampTasks(comp.Sample(rand.New(rand.NewSource(21)), 200), specs)
	src := NewSpecSource(comp, 21, 200, specs)
	if src.Total() != 200 {
		t.Fatalf("Total = %d", src.Total())
	}
	for i := range want {
		got, ok := src.Next()
		if !ok {
			t.Fatalf("source ended at task %d", i)
		}
		if got != want[i] {
			t.Fatalf("task %d = %+v, want %+v", i, got, want[i])
		}
	}
	if _, ok := src.Next(); ok {
		t.Fatal("source emitted extra tasks")
	}
	src.Rewind()
	if got, ok := src.Next(); !ok || got != want[0] {
		t.Fatalf("rewound source emitted %+v, want %+v", got, want[0])
	}
}
