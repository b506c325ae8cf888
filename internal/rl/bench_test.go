package rl

import (
	"fmt"
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

// rolloutStep performs the per-transition decision work of CollectEpisode:
// observe, sample an action, step the environment, and restart it when the
// episode ends. (The values are estimated per stored chunk, off this path.)
func rolloutStep(env Environment, restart func(), agent *PPO, state []float64) []float64 {
	state = env.Observe(state)
	action, _ := agent.SelectAction(state)
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
// full rollout step (Observe + SelectAction + Step) allocates nothing, with
// the value lane forced off and on — the lane setting must not reach the
// decision path.
func TestRolloutStepZeroAlloc(t *testing.T) {
	for _, lanes := range []bool{false, true} {
		t.Run(fmt.Sprintf("lanes=%v", lanes), func(t *testing.T) {
			forceLanes(t, lanes)
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
		})
	}
}

// BenchmarkCollectEpisode measures collecting one 96-step episode into a
// warm buffer (0 allocs/op, asserted by make bench-env): a full chunk, which
// the value lane takes when a second P can run it (-cpu 2), and a tail. It
// runs on synthetic, SyntheticEnv at the paper's width, and on topk, the
// cluster of BenchmarkRolloutStep cut into 96-step windows.
func BenchmarkCollectEpisode(b *testing.B) {
	const steps = 3 * stateChunkRows / 2
	b.Run("synthetic", func(b *testing.B) {
		env := NewSyntheticEnv(benchStateDim, benchActions, steps, 1)
		benchCollect(b, env, env.Reset, benchAgent(2))
	})
	b.Run("topk", func(b *testing.B) {
		cluster, restart := benchTopKEnv(b)
		env := &windowEnv{Env: cluster, restart: restart, steps: steps}
		agent := NewPPO(DefaultConfig(env.StateDim(), env.NumActions()), rand.New(rand.NewSource(2)))
		benchCollect(b, env, env.next, agent)
	})
}

// benchCollect times b.N episodes, each reset by reset and collected into
// one buffer, after a hundred warm ones: enough for the runtime's per-P
// lists of exited goroutines to fill with value lanes, and on a cluster to
// place its steady load, so its VMs' task lists stop growing.
func benchCollect(b *testing.B, env Environment, reset func(), agent *PPO) {
	var buf Buffer
	collect := func() {
		buf.Reset()
		reset()
		CollectEpisode(env, agent, &buf)
	}
	for range 100 {
		collect()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		collect()
	}
}

// windowEnv cuts a cluster's long episode into truncated episodes of steps
// steps; the cluster runs on across windows and restarts only when its own
// episode ends.
type windowEnv struct {
	*cloudsim.Env
	restart  func()
	steps, t int
}

func (w *windowEnv) next() {
	w.t = 0
	if w.Env.Done() {
		w.restart()
	}
}

func (w *windowEnv) Step(action int) float64 { w.t++; return w.Env.Step(action) }
func (w *windowEnv) Done() bool              { return w.t >= w.steps || w.Env.Done() }
func (w *windowEnv) Truncated() bool         { return w.t >= w.steps || w.Env.Truncated() }

// benchBuffer fills buf with full episodes, each started by reset, until it
// holds at least minSteps transitions.
func benchBuffer(env Environment, reset func(), agent *PPO, buf *Buffer, minSteps int) {
	for buf.Len() < minSteps {
		reset()
		CollectEpisode(env, agent, buf)
	}
}

// benchPaddedEnv is one table3_parallel client as the benchmark runs it:
// Table 3's Client 8 at a quarter of its capacity (four 4-vCPU VMs and one
// of 16) under that federation's caps, 7 VM slots of 16 vCPUs — 136 inputs,
// of which the two absent VMs' slots and every vCPU a VM lacks are −1 in
// every observation — on 120 KVM-2020 tasks.
func benchPaddedEnv(tb testing.TB) (*cloudsim.Env, func()) {
	specs := []cloudsim.VMSpec{{CPU: 4, Mem: 32}, {CPU: 4, Mem: 32}, {CPU: 4, Mem: 32}, {CPU: 4, Mem: 32}, {CPU: 16, Mem: 128}}
	cfg := cloudsim.DefaultConfig(specs)
	cfg.PadVMs, cfg.PadVCPUs, cfg.MaxCPU, cfg.MaxMem = 7, 16, 16, 128
	cfg.MaxSteps = 600
	src := cloudsim.NewSamplerSource(workload.Lookup(workload.KVM2020), 1, 120, cfg.VMs)
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

// BenchmarkPPOUpdate measures one full PPO update (4 epochs x minibatches of
// 64 over 256 transitions) at the paper's width and at the narrow width of
// the benchmark's fig15_table2 workload, where a minibatch step is short
// enough that the unit of actor/critic parallelism decides whether a second
// core pays, both on dense Gaussian states, and on padded, a per-VM cluster
// at table3_parallel's width whose void inputs tie first-layer rows. Run
// with -cpu 1,2 to read the sequential path beside the lanes.
func BenchmarkPPOUpdate(b *testing.B) {
	// sizedEnv is an environment that also reports its action count.
	type sizedEnv interface {
		Environment
		NumActions() int
	}
	synthetic := func(stateDim, actions int) func(testing.TB) (sizedEnv, func()) {
		return func(testing.TB) (sizedEnv, func()) {
			env := NewSyntheticEnv(stateDim, actions, benchHorizon, 3)
			return env, env.Reset
		}
	}
	for _, w := range []struct {
		name string
		env  func(testing.TB) (sizedEnv, func())
	}{
		{"paper", synthetic(benchStateDim, benchActions)},
		{"narrow", synthetic(60, 6)},
		{"padded", func(tb testing.TB) (sizedEnv, func()) {
			cluster, restart := benchPaddedEnv(tb)
			env := &windowEnv{Env: cluster, restart: restart, steps: benchHorizon}
			return env, env.next
		}},
	} {
		b.Run(w.name, func(b *testing.B) {
			env, reset := w.env(b)
			agent := NewPPO(DefaultConfig(env.StateDim(), env.NumActions()), rand.New(rand.NewSource(4)))
			var buf Buffer
			benchBuffer(env, reset, agent, &buf, 256)
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
