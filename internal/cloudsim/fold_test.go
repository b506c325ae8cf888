package cloudsim

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/workload"
)

// taskRecord is the outcome of one placement, rebuilt on the test side:
// Step folds each placement into the running values Metrics reads and keeps
// no record.
type taskRecord struct {
	Task   workload.Task
	Start  int // slot the task was placed
	Finish int // slot the task completed
}

// Wait returns the task's queueing delay j^wait.
func (r taskRecord) Wait() int { return r.Start - r.Task.Arrival }

// Response returns j^res = j^wait + j^run (Eq. 3).
func (r taskRecord) Response() int { return r.Finish - r.Task.Arrival }

// recorder drives an Env and rebuilds a record for every placement, in
// placement order.
type recorder struct{ recs []taskRecord }

// step is env.Step, recording the head task when the action placed it: a
// placement does not advance time, so it started at the slot Step ends in.
func (r *recorder) step(env *Env, action int) float64 {
	head, _ := env.HeadTask()
	placed := env.placed
	reward := env.Step(action)
	if env.placed > placed {
		r.recs = append(r.recs, taskRecord{Task: head, Start: env.now, Finish: env.now + head.Duration})
	}
	return reward
}

// run is RunEpisode through step.
func (r *recorder) run(env *Env, policy Policy) Metrics {
	for !env.Done() {
		r.step(env, policy.SelectAction(env))
	}
	env.Drain()
	return env.Metrics()
}

// referenceMetrics is the record-based Metrics the placement fold replaced,
// kept verbatim but for reading the records and its wait buffers as
// arguments: every field of the fold's Metrics must equal it bit for bit.
func referenceMetrics(e *Env, completed []taskRecord) Metrics {
	m := Metrics{Completed: len(completed), Total: e.totalTasks, Steps: e.step}
	if len(completed) > 0 {
		sum := 0.0
		for _, r := range completed {
			sum += float64(r.Response())
			if r.Finish > m.Makespan {
				m.Makespan = r.Finish
			}
		}
		m.AvgResponse = sum / float64(len(completed))
	}
	if e.slots > 0 {
		util := 0.0
		for i := 0; i < NumResources; i++ {
			util += resourceWeights[i] * e.utilSum[i]
		}
		m.AvgUtil = util / float64(e.slots)
		m.AvgLoadBal = e.loadBalSum / float64(e.slots)
	}
	m.EnergyWattSlots = e.energySum
	m.Cost = e.costSum
	var sloWaits [workload.NumSLOClasses][]float64
	referencePerSLO(e, completed, &sloWaits, &m)
	return m
}

// referencePerSLO is the parent's perSLOMetrics.
func referencePerSLO(e *Env, completed []taskRecord, sloWaits *[workload.NumSLOClasses][]float64, m *Metrics) {
	for c := range sloWaits {
		sloWaits[c] = sloWaits[c][:0]
	}
	for _, r := range completed {
		c := sloIndex(r.Task.SLO)
		sloWaits[c] = append(sloWaits[c], float64(r.Wait()))
	}
	for c := range m.PerSLO {
		s := &m.PerSLO[c]
		s.Class = workload.SLOClass(c)
		waits := sloWaits[c]
		s.Completed = len(waits)
		if len(waits) == 0 {
			continue
		}
		sort.Float64s(waits)
		sum := 0.0
		target := float64(e.cfg.Objectives.SLOWaitTarget[c])
		for _, w := range waits {
			sum += w
			if target > 0 && w > target {
				s.Violations++
			}
		}
		s.AvgWait = sum / float64(len(waits))
		s.WaitP50 = referencePercentile(waits, 0.50)
		s.WaitP95 = referencePercentile(waits, 0.95)
	}
}

// referencePercentile is the parent's waitPercentile.
func referencePercentile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// checkFold asserts that env's Metrics equals the record-based reference
// over recs, every float compared by its bits.
func checkFold(t *testing.T, env *Env, recs []taskRecord) {
	t.Helper()
	got, want := env.Metrics(), referenceMetrics(env, recs)
	if !sameMetricBits(got, want) {
		t.Fatalf("fold diverges from the records:\n got %+v\nwant %+v", got, want)
	}
}

func sameMetricBits(a, b Metrics) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.AvgResponse, b.AvgResponse) || !same(a.AvgUtil, b.AvgUtil) || !same(a.AvgLoadBal, b.AvgLoadBal) ||
		!same(a.EnergyWattSlots, b.EnergyWattSlots) || !same(a.Cost, b.Cost) ||
		a.Makespan != b.Makespan || a.Completed != b.Completed || a.Total != b.Total || a.Steps != b.Steps {
		return false
	}
	for c := range a.PerSLO {
		x, y := a.PerSLO[c], b.PerSLO[c]
		if x.Class != y.Class || x.Completed != y.Completed || x.Violations != y.Violations ||
			!same(x.AvgWait, y.AvgWait) || !same(x.WaitP50, y.WaitP50) || !same(x.WaitP95, y.WaitP95) {
			return false
		}
	}
	return true
}

// TestMetricsFoldMatchesRecords pins the placement fold against the
// record-based Metrics it replaced: every field, PerSLO included, bit-equal
// over Sampler and Spec sources on every dataset, with SLO wait targets set,
// mid-episode (Metrics read while tasks are queued and running), after a
// MaxSteps truncation, after a mid-stream source failure, and on waits in
// the thousands of slots.
func TestMetricsFoldMatchesRecords(t *testing.T) {
	specs := goldenCluster()
	targets := [][workload.NumSLOClasses]int{{}, {0, 1, 1}, {3, 2, 40}}
	check := func(t *testing.T, cfg Config, src TaskSource, seed int64) {
		t.Helper()
		env, err := NewEnvSource(cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		var rec recorder
		rng := rand.New(rand.NewSource(seed))
		for steps := 0; !env.Done(); steps++ {
			// Mostly first-fit, so tasks get placed, with random actions
			// mixed in for waits and invalid placements.
			a := FirstFit{}.SelectAction(env)
			if rng.Intn(4) == 0 {
				a = rng.Intn(env.NumActions())
			}
			rec.step(env, a)
			if steps%97 == 0 {
				checkFold(t, env, rec.recs)
			}
		}
		env.Drain()
		checkFold(t, env, rec.recs)
	}
	for _, id := range workload.AllDatasets() {
		for ti, target := range targets {
			cfg := DefaultConfig(specs)
			cfg.Objectives.SLOWaitTarget = target
			seed := int64(ti + 1)
			t.Run(workload.Lookup(id).Name, func(t *testing.T) {
				check(t, cfg, NewSamplerSource(workload.Lookup(id), seed, 150, specs), seed)
				truncated := cfg
				truncated.MaxSteps = 60
				check(t, truncated, NewSamplerSource(workload.Lookup(id), seed, 150, specs), seed)
			})
		}
	}
	t.Run("spec", func(t *testing.T) {
		m := workload.Lookup(workload.Google)
		poisson := *m
		poisson.Name, poisson.Arrival = "poisson-tenant", workload.ArrivalPoisson
		comp := &workload.Compiled{Name: "two-tenant", Clients: []workload.CompiledClient{
			{ID: "burst", Fraction: 0.6, Model: m},
			{ID: "poisson", Fraction: 0.4, Model: &poisson},
		}}
		for ti, target := range targets {
			cfg := DefaultConfig(specs)
			cfg.Objectives.SLOWaitTarget = target
			check(t, cfg, NewSpecSource(comp, int64(ti+1), 150, specs), int64(ti+1))
		}
	})
	t.Run("source-failure", func(t *testing.T) {
		good := ClampTasks(workload.Lookup(workload.Google).Sample(rand.New(rand.NewSource(21)), 40), specs)
		cfg := DefaultConfig(specs)
		cfg.Objectives.SLOWaitTarget = [workload.NumSLOClasses]int{1, 1, 1}
		check(t, cfg, &scriptedSource{tasks: good, err: errors.New("trace line 41: malformed row")}, 5)
	})
	t.Run("long-waits", func(t *testing.T) {
		// One single-vCPU VM and 40 tasks of 100 slots offered at once:
		// the last waits 3900 slots, and every SLO class holds waits past
		// a thousand.
		one := []VMSpec{{CPU: 1, Mem: 4}}
		tasks := make([]workload.Task, 40)
		for i := range tasks {
			tasks[i] = workload.Task{ID: i, CPU: 1, Mem: 1, Duration: 100, SLO: workload.SLOClass(i % workload.NumSLOClasses)}
		}
		cfg := DefaultConfig(one)
		cfg.MaxSteps = 10000
		cfg.Objectives.SLOWaitTarget = [workload.NumSLOClasses]int{500, 1500, 3000}
		check(t, cfg, NewSliceSource(tasks), 1)
	})
}
