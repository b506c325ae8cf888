package rl

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/workload"
)

// Benchmark dimensions mirror the paper's scheduler workload: a ~538-feature
// observation, 9 placement actions, one 64-unit hidden layer.
const (
	benchStateDim = 538
	benchActions  = 9
	benchHorizon  = 64
)

func benchAgent(seed int64) *PPO {
	return NewPPO(DefaultConfig(benchStateDim, benchActions), rand.New(rand.NewSource(seed)))
}

// rolloutStep performs the per-transition inference work of CollectEpisode:
// observe, sample an action, estimate the value, step the environment, and
// restart it when the episode ends.
func rolloutStep(env Environment, restart func(), agent *PPO, state []float64) []float64 {
	state = env.Observe(state)
	action, _ := agent.SelectAction(state)
	_ = agent.Value(state)
	_ = env.Step(action)
	if env.Done() {
		restart()
	}
	return state
}

// benchTopKEnv is the stream_5000vm benchmark workload's environment at a
// fifth of its size: the 20-VM Table-3 block (8, 6, 4 and 2 VMs of 8, 16, 32
// and 64 vCPUs) repeated to 1000 VMs, the ranked top-8 observation with the
// 10-bucket aggregate block (561 wide, every vCPU a candidate VM lacks
// padded with -1), and a streamed Google-trace episode of 100k tasks.
func benchTopKEnv(tb testing.TB) (*cloudsim.Env, func()) {
	var specs []cloudsim.VMSpec
	for len(specs) < 1000 {
		for _, g := range []struct {
			n, cpu int
			mem    float64
		}{{8, 8, 64}, {6, 16, 128}, {4, 32, 256}, {2, 64, 512}} {
			for i := 0; i < g.n; i++ {
				specs = append(specs, cloudsim.VMSpec{CPU: g.cpu, Mem: g.mem})
			}
		}
	}
	cfg := cloudsim.DefaultConfig(specs)
	cfg.TopK = 8
	cfg.UtilBuckets = 10
	src := cloudsim.NewSamplerSource(workload.Lookup(workload.Google), 1, 100_000, cfg.VMs)
	env, err := cloudsim.NewEnvSource(cfg, src)
	if err != nil {
		tb.Fatal(err)
	}
	return env, func() {
		src.Rewind()
		if err := env.ResetSource(src); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkRolloutStep measures the zero-allocation inference fast path
// (0 allocs/op, asserted by TestRolloutStepZeroAlloc and make bench-env) on
// two observations: synthetic, SyntheticEnv's dense random state at the
// paper's width, and topk, a real cloudsim top-k observation whose -1 void
// padding is the scalar the first layer's kernel subtracts instead of
// multiplying. (topk's B/op is the episode's completed-task log growing by
// doubling, not a per-step allocation.)
func BenchmarkRolloutStep(b *testing.B) {
	b.Run("synthetic", func(b *testing.B) {
		env := NewSyntheticEnv(benchStateDim, benchActions, benchHorizon, 1)
		benchRolloutSteps(b, env, env.Reset, benchAgent(2), 16)
	})
	b.Run("topk", func(b *testing.B) {
		env, restart := benchTopKEnv(b)
		agent := NewPPO(DefaultConfig(env.StateDim(), env.NumActions()), rand.New(rand.NewSource(2)))
		benchRolloutSteps(b, env, restart, agent, 1000)
	})
}

// benchRolloutSteps times b.N rollout steps after warm ones that fill the
// agent scratch and the tensor pool (and, on a cluster, place some load).
func benchRolloutSteps(b *testing.B, env Environment, restart func(), agent *PPO, warm int) {
	var state []float64
	for i := 0; i < warm; i++ {
		state = rolloutStep(env, restart, agent, state)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state = rolloutStep(env, restart, agent, state)
	}
}

// TestRolloutStepZeroAlloc pins the headline tentpole claim: after warmup, a
// full rollout step (Observe + SelectAction + Value + Step) allocates nothing.
func TestRolloutStepZeroAlloc(t *testing.T) {
	env := NewSyntheticEnv(benchStateDim, benchActions, benchHorizon, 1)
	agent := benchAgent(2)
	var state []float64
	for i := 0; i < 16; i++ {
		state = rolloutStep(env, env.Reset, agent, state)
	}
	allocs := testing.AllocsPerRun(200, func() {
		state = rolloutStep(env, env.Reset, agent, state)
	})
	if allocs != 0 {
		t.Fatalf("rollout step allocates %.1f objects/op, want 0", allocs)
	}
}

// benchBuffer fills buf with full episodes until it holds at least minSteps
// transitions.
func benchBuffer(env *SyntheticEnv, agent *PPO, buf *Buffer, minSteps int) {
	for buf.Len() < minSteps {
		env.Reset()
		CollectEpisode(env, agent, buf)
	}
}

// BenchmarkPPOUpdate measures one full PPO update (4 epochs x minibatches of
// 64 over 256 transitions) at the paper's width and at the narrow width of
// the benchmark's fig15_table2 workload, where a minibatch step is short
// enough that the unit of actor/critic parallelism decides whether a second
// core pays. Run with -cpu 1,2 to read the sequential path beside the lanes.
func BenchmarkPPOUpdate(b *testing.B) {
	for _, w := range []struct {
		name              string
		stateDim, actions int
	}{
		{"paper", benchStateDim, benchActions},
		{"narrow", 60, 6},
	} {
		b.Run(w.name, func(b *testing.B) {
			env := NewSyntheticEnv(w.stateDim, w.actions, benchHorizon, 3)
			agent := NewPPO(DefaultConfig(w.stateDim, w.actions), rand.New(rand.NewSource(4)))
			var buf Buffer
			benchBuffer(env, agent, &buf, 256)
			agent.Update(&buf) // warm the tape spare list and the tensor pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agent.Update(&buf)
			}
		})
	}
}

// TestConcurrentClientsSharedPool mirrors fed.TrainClients: several
// clients, each with its own agent and environment, collect and update
// concurrently while sharing the process-wide tensor pool. Run under -race
// in CI; any unsynchronized pool or tape reuse across goroutines fails there.
func TestConcurrentClientsSharedPool(t *testing.T) {
	const clients = 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			env := NewSyntheticEnv(24, 5, 32, seed)
			agent := NewPPO(DefaultConfig(24, 5), rand.New(rand.NewSource(seed)))
			var buf Buffer
			for round := 0; round < 3; round++ {
				buf.Reset()
				env.Reset()
				CollectEpisode(env, agent, &buf)
				stats := agent.Update(&buf)
				if stats != (UpdateStats{}) && stats.Entropy < 0 {
					t.Errorf("client %d: negative entropy %v", seed, stats.Entropy)
				}
				env.Reset()
				EvaluateEpisodeMasked(env, agent.GreedyAction)
			}
		}(int64(c + 10))
	}
	wg.Wait()
}
