package cloudsim

import (
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// benchCluster is the default 20-VM heterogeneous cluster used by the
// simulator-core benchmarks: the Table-3 capacity mix (8/16/32/64 vCPU
// tiers) at a scale where Step and Observe costs are dominated by the
// engine, not the workload generator.
func benchCluster() []VMSpec {
	var specs []VMSpec
	add := func(n, cpu int, mem float64) {
		for i := 0; i < n; i++ {
			specs = append(specs, VMSpec{CPU: cpu, Mem: mem})
		}
	}
	add(8, 8, 64)
	add(6, 16, 128)
	add(4, 32, 256)
	add(2, 64, 512)
	return specs
}

// benchWorkload samples a seeded Google-trace task set clamped to the
// cluster, so every benchmark run schedules the identical episode.
func benchWorkload(specs []VMSpec, n int) []workload.Task {
	rng := rand.New(rand.NewSource(1))
	return ClampTasks(workload.SampleDataset(workload.Google, rng, n), specs)
}

// benchFirstFit picks the first slot whose VM fits the head task; Wait
// otherwise. Inlined here (rather than FirstFit.SelectAction) so the
// benchmarks time the environment, not the chooser.
func benchFirstFit(env *Env) int {
	head, ok := env.HeadTask()
	if !ok {
		return env.WaitAction()
	}
	for s := 0; s < env.WaitAction(); s++ {
		if vi := env.CandidateVM(s); vi >= 0 && env.vms[vi].Fits(head) {
			return s
		}
	}
	return env.WaitAction()
}

// benchViews are the two slot layouts every simulator benchmark runs under:
// the per-VM view of the 20-VM cluster (every training rollout) and the
// ranked view of a 500-VM cluster with the aggregate block on (the streamed
// large-cluster episodes).
var benchViews = []struct {
	name string
	cfg  func() Config
}{
	{"per-vm", func() Config { return DefaultConfig(benchCluster()) }},
	{"ranked", func() Config {
		cfg := DefaultConfig(tieredCluster(500))
		cfg.TopK = 16
		cfg.UtilBuckets = 8
		return cfg
	}},
}

// forEachView runs body as one sub-benchmark per slot layout, on a seeded
// 400-task episode clamped to the layout's cluster.
func forEachView(b *testing.B, body func(b *testing.B, env *Env, tasks []workload.Task)) {
	for _, v := range benchViews {
		b.Run(v.name, func(b *testing.B) {
			cfg := v.cfg()
			tasks := benchWorkload(cfg.VMs, 400)
			body(b, MustNewEnv(cfg, tasks), tasks)
		})
	}
}

// BenchmarkEnvStep measures the per-decision hot path of a training
// rollout on the environment side: Observe into a reused buffer, a
// first-fit action choice, and Step. Episodes restart in place, so the
// numbers reflect steady state across episode boundaries.
func BenchmarkEnvStep(b *testing.B) {
	forEachView(b, func(b *testing.B, env *Env, tasks []workload.Task) {
		buf := make([]float64, env.StateDim())
		// Warm one full episode so internal buffers reach steady state.
		for !env.Done() {
			buf = env.Observe(buf)
			env.Step(benchFirstFit(env))
		}
		env.Reset(tasks)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = env.Observe(buf)
			env.Step(benchFirstFit(env))
			if env.Done() {
				env.Reset(tasks)
			}
		}
	})
}

// BenchmarkObserve isolates the state-encoding cost with a half-loaded
// cluster (the regime Observe spends most of an episode in).
func BenchmarkObserve(b *testing.B) {
	forEachView(b, func(b *testing.B, env *Env, _ []workload.Task) {
		for i := 0; i < 200 && !env.Done(); i++ {
			env.Step(benchFirstFit(env))
		}
		buf := make([]float64, env.StateDim())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = env.Observe(buf)
		}
	})
}

// BenchmarkEpisode measures a complete seeded episode: Reset, the
// first-fit decision loop with observations, Drain, and Metrics.
func BenchmarkEpisode(b *testing.B) {
	forEachView(b, func(b *testing.B, env *Env, tasks []workload.Task) {
		buf := make([]float64, env.StateDim())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			env.Reset(tasks)
			for !env.Done() {
				buf = env.Observe(buf)
				env.Step(benchFirstFit(env))
			}
			env.Drain()
			_ = env.Metrics()
		}
	})
}
