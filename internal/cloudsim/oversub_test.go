package cloudsim

import (
	"testing"

	"repro/internal/workload"
)

// TestSlowedDurationTable pins the placement-time slowdown model on a VM
// with spec {2 vCPU, 4 GiB} at ratio 2 (cap 4 vCPU): while committed vCPUs
// stay within the 2 physical cores the task runs at full speed; past that,
// runtime stretches by usedAfter/physical, rounded up.
func TestSlowedDurationTable(t *testing.T) {
	cases := []struct {
		name     string
		freeCPU  int // free schedulable vCPUs before placement (cap 4)
		cpu, dur int
		want     int
	}{
		{"within-physical", 4, 2, 4, 4},         // usedAfter 2 ≤ 2
		{"first-overcommit", 2, 1, 2, 3},        // usedAfter 3 → ⌈2·3/2⌉
		{"full-overcommit", 1, 1, 2, 4},         // usedAfter 4 → ⌈2·4/2⌉
		{"overcommit-odd-ceil", 4, 3, 5, 8},     // usedAfter 3 → ⌈5·3/2⌉
		{"whole-cap-single-task", 4, 4, 1, 2},   // usedAfter 4 → ⌈1·4/2⌉
		{"boundary-exact-physical", 3, 1, 7, 7}, // usedAfter 2 ≤ 2
		{"one-slot-task-slowed", 2, 2, 1, 2},    // usedAfter 4 → ⌈1·4/2⌉
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := &VM{}
			v.reset(VMSpec{CPU: 2, Mem: 4}, 2)
			if v.capCPU != 4 || v.capMem != 8 {
				t.Fatalf("cap = (%d, %g), want (4, 8)", v.capCPU, v.capMem)
			}
			v.freeCPU = tc.freeCPU
			if got := v.slowedDuration(tc.cpu, tc.dur); got != tc.want {
				t.Fatalf("slowedDuration(cpu=%d, dur=%d) with free %d = %d, want %d",
					tc.cpu, tc.dur, tc.freeCPU, got, tc.want)
			}
		})
	}
}

// TestOversubScenarioHandComputed works a full 3-VM oversubscription
// episode out by hand: three tasks stacked on VM0 (spec 2 vCPU / 4 GiB,
// ratio 2 → cap 4 vCPU / 8 GiB) and one on VM1.
//
//	A {2 vCPU, 2 GiB, dur 4} at t=0: committed 2 ≤ 2 physical  → dur 4, finish 4
//	B {1 vCPU, 2 GiB, dur 2} at t=0: committed 3 > 2           → ⌈2·3/2⌉ = 3, finish 3
//	C {1 vCPU, 2 GiB, dur 2} at t=0: committed 4 > 2           → ⌈2·4/2⌉ = 4, finish 4
//	D {1 vCPU, 2 GiB, dur 3} at t=0 on empty VM1               → dur 3, finish 3
//
// Retirement order by (finish, task ID): (3,B), (3,D), (4,A), (4,C).
func TestOversubScenarioHandComputed(t *testing.T) {
	specs := []VMSpec{{CPU: 2, Mem: 4}, {CPU: 2, Mem: 4}, {CPU: 2, Mem: 4}}
	cfg := DefaultConfig(specs)
	cfg.Oversub = 2
	cfg.PadVCPUs = 4 // caps grow to 4 schedulable vCPUs per VM
	cfg.MaxCPU = 4
	tasks := []workload.Task{
		{ID: 0, Arrival: 0, CPU: 2, Mem: 2, Duration: 4}, // A
		{ID: 1, Arrival: 0, CPU: 1, Mem: 2, Duration: 2}, // B
		{ID: 2, Arrival: 0, CPU: 1, Mem: 2, Duration: 2}, // C
		{ID: 3, Arrival: 0, CPU: 1, Mem: 2, Duration: 3}, // D
	}
	env := MustNewEnv(cfg, tasks)

	var popped []completion
	env.retireHook = func(c completion) { popped = append(popped, c) }
	defer func() { env.retireHook = nil }()

	for _, action := range []int{0, 0, 0, 1} {
		env.Step(action)
	}
	if !env.Done() {
		t.Fatal("all four tasks placed; episode should be done")
	}
	env.Drain()

	wantRecords := []TaskRecord{
		{Task: tasks[0], Start: 0, Finish: 4},
		{Task: tasks[1], Start: 0, Finish: 3},
		{Task: tasks[2], Start: 0, Finish: 4},
		{Task: tasks[3], Start: 0, Finish: 3},
	}
	wantRecords[0].Task.Duration = 4 // unchanged
	wantRecords[1].Task.Duration = 3 // slowed from 2
	wantRecords[2].Task.Duration = 4 // slowed from 2
	wantRecords[3].Task.Duration = 3 // unchanged
	recs := env.Records()
	if len(recs) != len(wantRecords) {
		t.Fatalf("%d records, want %d", len(recs), len(wantRecords))
	}
	for i, want := range wantRecords {
		if recs[i] != want {
			t.Fatalf("record %d: got %+v, want %+v", i, recs[i], want)
		}
	}

	wantPops := []struct{ finish, id int }{{3, 1}, {3, 3}, {4, 0}, {4, 2}}
	if len(popped) != len(wantPops) {
		t.Fatalf("%d retirements, want %d", len(popped), len(wantPops))
	}
	for i, want := range wantPops {
		if popped[i].finish != want.finish || popped[i].id != want.id {
			t.Fatalf("retirement %d: got (%d,%d), want (%d,%d)",
				i, popped[i].finish, popped[i].id, want.finish, want.id)
		}
	}

	// Everything returned to the free pool.
	for i, vm := range env.VMs() {
		if vm.FreeCPU() != vm.CapCPU() || vm.FreeMem() != vm.CapMem() {
			t.Fatalf("VM %d not fully freed: %d/%d CPU, %g/%g mem",
				i, vm.FreeCPU(), vm.CapCPU(), vm.FreeMem(), vm.CapMem())
		}
	}
}

// TestOversubConfigValidate pins the configuration guards around the
// oversubscription knob.
func TestOversubConfigValidate(t *testing.T) {
	base := DefaultConfig([]VMSpec{{CPU: 4, Mem: 8}})
	bad := base
	bad.Oversub = 0.5
	if err := bad.Validate(); err == nil {
		t.Fatal("Oversub 0.5 accepted")
	}
	bad = base
	bad.Oversub = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative Oversub accepted")
	}
	// Ratio 2 doubles capCPU to 8 > PadVCPUs 4: must be rejected until the
	// padding cap is raised to cover the oversubscribed vCPUs.
	bad = base
	bad.Oversub = 2
	if err := bad.Validate(); err == nil {
		t.Fatal("capCPU > PadVCPUs accepted")
	}
	ok := base
	ok.Oversub = 2
	ok.PadVCPUs = 8
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid oversubscribed config rejected: %v", err)
	}
	for _, ratio := range []float64{0, 1} {
		off := base
		off.Oversub = ratio
		if err := off.Validate(); err != nil {
			t.Fatalf("Oversub %v (off) rejected: %v", ratio, err)
		}
	}
}

// TestOversubAdmitsBeyondPhysical pins the headline capability: a VM's
// schedulable capacity exceeds its physical resources, so placements that
// the plain engine rejects are admitted (and slowed).
func TestOversubAdmitsBeyondPhysical(t *testing.T) {
	specs := []VMSpec{{CPU: 2, Mem: 2}}
	tasks := []workload.Task{
		{ID: 0, Arrival: 0, CPU: 2, Mem: 2, Duration: 2},
		{ID: 1, Arrival: 0, CPU: 2, Mem: 2, Duration: 2},
	}
	plain := DefaultConfig(specs)
	env := MustNewEnv(plain, tasks)
	env.Step(0)
	if r := env.Step(0); r >= 0 {
		t.Fatalf("plain engine admitted a second task on a full VM (reward %v)", r)
	}

	over := plain
	over.Oversub = 2
	over.PadVCPUs = 4
	envO := MustNewEnv(over, tasks)
	envO.Step(0)
	if r := envO.Step(0); r <= 0 {
		t.Fatalf("oversubscribed engine rejected an in-cap placement (reward %v)", r)
	}
	recs := envO.Records()
	if recs[1].Task.Duration != 4 { // committed 4 on 2 physical → ⌈2·4/2⌉
		t.Fatalf("second task duration %d, want 4 (slowed)", recs[1].Task.Duration)
	}
}
