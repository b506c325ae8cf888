package cloudsim

import (
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// Golden degradation tests: each scalable-engine feature, dialed to its
// neutral setting, must reproduce the legacy engine bit-for-bit — same
// observations, same reward stream, same metrics.

// driveLockstep steps a and b with the same seeded action mix (random
// actions, so valid placements, invalid placements, and waits all occur)
// and fails on the first divergence in rewards, observations, or episode
// state. Both envs must have the same action-space size.
func driveLockstep(t *testing.T, a, b *Env, seed int64) {
	t.Helper()
	if a.NumActions() != b.NumActions() {
		t.Fatalf("action spaces differ: %d vs %d", a.NumActions(), b.NumActions())
	}
	if a.StateDim() != b.StateDim() {
		t.Fatalf("state dims differ: %d vs %d", a.StateDim(), b.StateDim())
	}
	rng := rand.New(rand.NewSource(seed))
	var obsA, obsB []float64
	step := 0
	for !a.Done() {
		if b.Done() {
			t.Fatalf("step %d: second env finished first", step)
		}
		obsA = a.Observe(obsA)
		obsB = b.Observe(obsB)
		for i := range obsA {
			if obsA[i] != obsB[i] {
				t.Fatalf("step %d: observation[%d] differs: %v vs %v", step, i, obsA[i], obsB[i])
			}
		}
		action := rng.Intn(a.NumActions())
		ra, rb := a.Step(action), b.Step(action)
		if ra != rb {
			t.Fatalf("step %d action %d: reward %v vs %v", step, action, ra, rb)
		}
		step++
	}
	if !b.Done() {
		t.Fatalf("first env finished at step %d, second still running", step)
	}
	a.Drain()
	b.Drain()
	ma, mb := a.Metrics(), b.Metrics()
	if ma != mb {
		t.Fatalf("metrics diverge:\n%+v\n%+v", ma, mb)
	}
	if len(a.Records()) != len(b.Records()) {
		t.Fatalf("record counts diverge: %d vs %d", len(a.Records()), len(b.Records()))
	}
	for i := range a.Records() {
		if a.Records()[i] != b.Records()[i] {
			t.Fatalf("record %d diverges: %+v vs %+v", i, a.Records()[i], b.Records()[i])
		}
	}
}

func goldenCluster() []VMSpec {
	return []VMSpec{
		{CPU: 4, Mem: 8}, {CPU: 8, Mem: 16}, {CPU: 2, Mem: 4},
		{CPU: 16, Mem: 64}, {CPU: 8, Mem: 32}, {CPU: 4, Mem: 8},
	}
}

// TestGoldenTopKIdentity: TopK ≥ len(VMs) (with no aggregate block) is the
// per-VM layout over TopK slots and must be bit-identical to TopK = 0 with
// PadVMs = TopK.
func TestGoldenTopKIdentity(t *testing.T) {
	specs := goldenCluster()
	for seed := int64(1); seed <= 5; seed++ {
		tasks := invWorkload(specs, 120, seed)

		legacy := DefaultConfig(specs)
		env := MustNewEnv(legacy, tasks)

		topk := legacy
		topk.TopK = len(specs) // == PadVMs, so NumActions and StateDim agree
		envK := MustNewEnv(topk, tasks)

		driveLockstep(t, env, envK, seed*31)
	}
}

// TestGoldenStreamingSampler: the one stream-backed source, through either
// constructor, must reproduce the materialized ClampTasks(Sample(...))
// episode bit-for-bit — same reward stream, observations, metrics, and
// records. The model row samples a builtin dataset, the spec row a
// two-tenant spec whose stream is a k-way merge.
func TestGoldenStreamingSampler(t *testing.T) {
	specs := goldenCluster()
	const n = 120
	m := workload.Lookup(workload.Google)
	twoTenant := *m
	twoTenant.Name, twoTenant.Arrival = "poisson-tenant", workload.ArrivalPoisson
	comp := &workload.Compiled{Name: "two-tenant", Clients: []workload.CompiledClient{
		{ID: "burst", Fraction: 0.6, Model: m},
		{ID: "poisson", Fraction: 0.4, Model: &twoTenant},
	}}
	rows := []struct {
		name   string
		sample func(rng *rand.Rand) []workload.Task
		source func(seed int64) *SamplerSource
	}{
		{"model",
			func(rng *rand.Rand) []workload.Task { return m.Sample(rng, n) },
			func(seed int64) *SamplerSource { return NewSamplerSource(m, seed, n, specs) }},
		{"spec",
			func(rng *rand.Rand) []workload.Task { return comp.Sample(rng, n) },
			func(seed int64) *SamplerSource { return NewSpecSource(comp, seed, n, specs) }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				tasks := ClampTasks(row.sample(rand.New(rand.NewSource(seed))), specs)
				cfg := DefaultConfig(specs)
				env := MustNewEnv(cfg, tasks)

				envS, err := NewEnvSource(cfg, row.source(seed))
				if err != nil {
					t.Fatal(err)
				}
				driveLockstep(t, env, envS, seed*37)
			}
		})
	}
}

// TestGoldenOversubOne: oversubscription ratio 1.0 must be bit-identical
// to the non-oversubscribed engine (ratio handling must not take any float
// round trip at 1.0).
func TestGoldenOversubOne(t *testing.T) {
	specs := goldenCluster()
	for seed := int64(1); seed <= 5; seed++ {
		tasks := invWorkload(specs, 120, seed)
		plain := DefaultConfig(specs)
		env := MustNewEnv(plain, tasks)

		one := plain
		one.Oversub = 1.0
		envO := MustNewEnv(one, tasks)

		driveLockstep(t, env, envO, seed*41)
	}
}

// TestGoldenSliceSourceReset: resetting onto an external SliceSource is
// bit-identical to the materialized Reset path (they share the admit loop).
func TestGoldenSliceSourceReset(t *testing.T) {
	specs := goldenCluster()
	tasks := invWorkload(specs, 120, 9)
	cfg := DefaultConfig(specs)
	env := MustNewEnv(cfg, tasks)
	envS := MustNewEnv(cfg, nil)
	envS.cfg.MaxSteps = env.cfg.MaxSteps // MustNewEnv(nil) derived a smaller cap
	if err := envS.ResetSource(NewSliceSource(tasks)); err != nil {
		t.Fatal(err)
	}
	driveLockstep(t, env, envS, 43)
}
