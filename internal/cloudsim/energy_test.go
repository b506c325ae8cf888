package cloudsim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

func TestPowerModelDraw(t *testing.T) {
	if draw(0.5, false) != 0 {
		t.Fatal("scaled-to-zero VM should draw nothing")
	}
	if draw(0, true) != 100 {
		t.Fatal("busy idle-util VM should draw idle watts")
	}
	if draw(1, true) != 300 {
		t.Fatal("fully utilized VM should draw peak watts")
	}
	if draw(0.5, true) != 200 {
		t.Fatal("linear interpolation wrong")
	}
}

func TestEnergyAccountingIntegratesOverTime(t *testing.T) {
	cfg := DefaultConfig([]VMSpec{{CPU: 2, Mem: 8}})
	tasks := []workload.Task{{ID: 0, Arrival: 0, CPU: 2, Mem: 4, Duration: 3}}
	env := MustNewEnv(cfg, tasks)
	env.Step(0) // place; VM fully utilized for 3 slots
	env.Drain()
	m := env.Metrics()
	// Slots 1,2,3 are accumulated by advanceTime with the task running at
	// full CPU (progress checks happen after completion sweep, so the slot
	// where it finishes counts as idle). Exact accounting: slots 1 and 2
	// busy at peak, slot 3 the task has finished.
	want := 2 * peakWatts
	if math.Abs(m.EnergyWattSlots-want) > 1e-9 {
		t.Fatalf("energy %v, want %v", m.EnergyWattSlots, want)
	}
	if m.Cost <= 0 {
		t.Fatal("busy VM should accrue cost")
	}
}

func TestIdleClusterDrawsNothing(t *testing.T) {
	cfg := DefaultConfig([]VMSpec{{CPU: 4, Mem: 16}, {CPU: 8, Mem: 32}})
	env := MustNewEnv(cfg, []workload.Task{{ID: 0, Arrival: 5, CPU: 1, Mem: 1, Duration: 1}})
	for i := 0; i < 4; i++ {
		env.Step(env.WaitAction())
	}
	m := env.Metrics()
	if m.EnergyWattSlots != 0 || m.Cost != 0 {
		t.Fatalf("idle cluster drew energy %v cost %v", m.EnergyWattSlots, m.Cost)
	}
}

func TestDefaultRewardUnchangedByEnergyCode(t *testing.T) {
	// The energy and cost accounting only measures: every placement's reward
	// is the paper's two-term Eq. (6), recomputed here from the head task and
	// the load balance before and after the step.
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultConfig([]VMSpec{{CPU: 8, Mem: 64}, {CPU: 16, Mem: 128}})
	tasks := ClampTasks(workload.SampleDataset(workload.Google, rng, 40), cfg.VMs)
	env := MustNewEnv(cfg, tasks)
	p := FirstFit{}
	placed := 0
	for !env.Done() {
		a := p.SelectAction(env)
		head, _ := env.HeadTask()
		now, before := env.Now(), env.loadBalance()
		r := env.Step(a)
		if a == env.WaitAction() {
			continue
		}
		placed++
		run := float64(head.Duration)
		rRes := math.Exp(run/(float64(now-head.Arrival)+run)) / math.E
		rLoad := 1.0
		if loadC := env.loadBalance() - before; loadC > 0 {
			rLoad = loadC
		}
		if want := rho*rRes + (1-rho)*rLoad; r != want {
			t.Fatalf("placement %d: reward %v, want Eq. (6)'s %v", placed, r, want)
		}
	}
	if placed != len(tasks) {
		t.Fatalf("first-fit placed %d of %d tasks", placed, len(tasks))
	}
}

func TestEnergyAwareTrainingEnvelope(t *testing.T) {
	// End to end: a consolidating policy (first-fit) must cost less energy
	// than a spreading policy (worst-fit) under the power model.
	rng := rand.New(rand.NewSource(2))
	cfg := DefaultConfig([]VMSpec{{CPU: 8, Mem: 64}, {CPU: 8, Mem: 64}, {CPU: 8, Mem: 64}})
	tasks := ClampTasks(workload.SampleDataset(workload.Google, rng, 100), cfg.VMs)
	ff := RunEpisode(MustNewEnv(cfg, tasks), FirstFit{})
	wf := RunEpisode(MustNewEnv(cfg, tasks), WorstFit{})
	if ff.EnergyWattSlots >= wf.EnergyWattSlots {
		t.Fatalf("first-fit energy %v should beat worst-fit %v", ff.EnergyWattSlots, wf.EnergyWattSlots)
	}
}
