package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/attn"
	"repro/internal/autograd"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/fed"
	"repro/internal/fedcore"
	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// Probes call one public function of one layer directly, at the shapes the
// workloads use it at, inside the traced run. They are the same in every
// workload's traced run: fig15_table2's observation width and minibatch for
// the update kernels, stream_5000vm's observation for inference, and
// swarm_104_async's public-critic payload for the codec and the reducers.

// probe times calls invocations of fn and returns the median duration of one
// and the heap allocations per invocation.
func probe(calls int, fn func()) (time.Duration, float64) {
	fn() // sizes scratch buffers and fills the pool
	ds := make([]time.Duration, calls)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = time.Since(t0)
	}
	runtime.ReadMemStats(&ms)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2], float64(ms.Mallocs-mallocs) / float64(calls)
}

// probeLoop is probe for functions too short to time singly: each sample is
// inner back-to-back calls, and the result is nanoseconds per call.
func probeLoop(calls, inner int, fn func()) float64 {
	d, _ := probe(calls, func() {
		for i := 0; i < inner; i++ {
			fn()
		}
	})
	return float64(d.Nanoseconds()) / float64(inner)
}

func randomMatrix(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	return tensor.RandNormal(rng, rows, cols, 0, 1)
}

func randomPayloads(rng *rand.Rand, k, dim int) []fed.Payload {
	out := make([]fed.Payload, k)
	for i := range out {
		out[i] = make(fed.Payload, dim)
		for j := range out[i] {
			out[i][j] = rng.NormFloat64() * 0.1
		}
	}
	return out
}

// runProbes fills vals with every probe metric.
func runProbes(vals map[string]float64, seed int64, sc scale) error {
	n := sc.probeCalls
	rng := rand.New(rand.NewSource(seed))

	// Shapes.
	trainCfg := fig15Workload().config(seed, fullScale)
	envCfg := core.CapsFor(trainCfg.Specs).EnvConfig(trainCfg.Specs[0])
	stateDim, actions := cloudsim.StateDim(envCfg), cloudsim.NumActions(envCfg)
	rlCfg := rl.DefaultConfig(stateDim, actions)
	mb, hidden := rlCfg.MiniBatch, rlCfg.Hidden[0]
	streamCfg := streamConfig(len(streamBlock()))
	streamDim, streamActions := cloudsim.StateDim(streamCfg), cloudsim.NumActions(streamCfg)
	payloadDim := swarmPayloadDim()

	// workload: task sampling, the bulk of every set-up.
	const sampleN = 2000
	d, _ := probe(n, func() {
		workload.SampleDataset(workload.Google, rand.New(rand.NewSource(seed)), sampleN)
	})
	vals["workload.sample_tasks_per_s"] = sampleN / seconds(d)

	// tensor: the two matmul shapes of a hidden layer's forward and weight
	// gradient at minibatch size, and the activation.
	a := randomMatrix(rng, mb, stateDim)
	w := randomMatrix(rng, stateDim, hidden)
	out := tensor.New(mb, hidden)
	flops := 2 * float64(mb) * float64(stateDim) * float64(hidden)
	vals["tensor.matmul_gflops"] = flops / probeLoop(n, 20, func() { a.MatMulInto(w, out) })
	g := randomMatrix(rng, mb, hidden)
	gw := tensor.New(stateDim, hidden)
	vals["tensor.matmul_transa_gflops"] = flops / probeLoop(n, 20, func() { a.MatMulTransAInto(g, gw) })
	act := tensor.New(mb, hidden)
	vals["tensor.tanh_ns_per_elem"] = probeLoop(n, 20, func() { g.ApplyInto(math.Tanh, act) }) / float64(mb*hidden)

	// nn: single-state and batched inference at the streamed observation
	// width, one optimizer step, and the payload (un)flattening of a round.
	actor := nn.NewMLP(rng, "actor", []int{streamDim, hidden, streamActions}, nn.ActTanh, 0.01)
	x1, y1 := randomMatrix(rng, 1, streamDim), tensor.New(1, streamActions)
	vals["nn.mlp_infer_ns"] = probeLoop(n, 200, func() { actor.Infer(y1, x1) })
	x16, y16 := randomMatrix(rng, 16, streamDim), tensor.New(16, streamActions)
	vals["nn.mlp_infer_batch16_ns_per_row"] = probeLoop(n, 50, func() { actor.Infer(y16, x16) }) / 16
	trainActor := nn.NewMLP(rng, "actor", []int{stateDim, hidden, actions}, nn.ActTanh, 0.01)
	critic := nn.NewMLP(rng, "critic", []int{stateDim, hidden, 1}, nn.ActTanh, 1.0)
	adam := nn.NewAdam(trainActor, rlCfg.ActorLR)
	vals["nn.adam_step_us"] = probeLoop(n, 20, adam.Step) / 1e3
	public := nn.NewMLP(rng, "public", []int{(payloadDim-1)/hidden - 2, hidden, 1}, nn.ActTanh, 1.0)
	if got := nn.NumParams(public); got != payloadDim {
		return fmt.Errorf("benchmark: public-critic probe has %d parameters, the swarm payload %d", got, payloadDim)
	}
	var flat []float64
	vals["nn.flatten_params_us"] = probeLoop(n, 5, func() { flat = nn.FlattenParams(public) }) / 1e3
	var loadErr error
	vals["nn.load_flat_params_us"] = probeLoop(n, 5, func() { loadErr = nn.LoadFlatParams(public, flat) }) / 1e3
	if loadErr != nil {
		return loadErr
	}

	// autograd: one minibatch forward + Backward of each network, on a
	// pooled tape as the update runs them.
	tape := autograd.NewPooledTape(tensor.DefaultPool())
	acts := make([]int, mb)
	for i := range acts {
		acts[i] = rng.Intn(actions)
	}
	oldLogp := tensor.Full(mb, 1, -math.Log(float64(actions)))
	adv := randomMatrix(rng, mb, 1)
	d, _ = probe(n, func() {
		tape.Reset()
		logits := trainActor.Forward(tape, tape.Const(a))
		autograd.ClippedSurrogateLoss(logits, acts, oldLogp, adv, rlCfg.Clip, rlCfg.EntCoef).Loss.Backward()
		nn.ZeroGrads(trainActor)
	})
	vals["autograd.actor_fwdbwd_ms"] = millis(d)
	target := randomMatrix(rng, mb, 1)
	d, _ = probe(n, func() {
		tape.Reset()
		pred := critic.Forward(tape, tape.Const(a))
		autograd.Mean(autograd.Square(autograd.Sub(pred, tape.Const(target)))).Backward()
		nn.ZeroGrads(critic)
	})
	vals["autograd.critic_fwdbwd_ms"] = millis(d)
	tape.Reset()

	// rl: Agent.Update on a buffer captured from a real episode of
	// fig15_table2's first client, for both agent types.
	for _, p := range []struct {
		alg    core.Algorithm
		suffix string
	}{{core.AlgPPO, ""}, {core.AlgPFRLDM, ".dual"}} {
		cfg := trainCfg
		cfg.Specs = cfg.Specs[:1]
		if sc.fig15Tasks < cfg.TasksPerClient { // smoke: a short buffer
			cfg.TasksPerClient, cfg.EpisodeStepCap = sc.fig15Tasks, 5*sc.fig15Tasks
		}
		data, err := core.SampleClientData(cfg)
		if err != nil {
			return err
		}
		clients, err := core.BuildClients(p.alg, cfg, data)
		if err != nil {
			return err
		}
		c := clients[0]
		c.TrainEpisodes(1)
		d, allocs := probe(n, func() { c.Agent.Update(&c.LastBuf) })
		vals["rl.update_probe_ms"+p.suffix] = millis(d)
		vals["rl.update_allocs_per_call"+p.suffix] = allocs
	}

	// attn: the K x K weight computation at the payload length.
	gen := attn.NewAggregator(seed)
	for _, k := range []int{5, 8} {
		emb := randomPayloads(rng, k, payloadDim)
		d, _ = probe(n, func() { gen.Weights(emb) })
		vals[fmt.Sprintf("attn.weights_us.k%d", k)] = micros(d)
	}

	// fedcore: codec tiers, reducers, and a buffer's worth of submissions.
	payload := randomPayloads(rng, 1, payloadDim)[0]
	var dec []float64
	for _, tier := range []fedcore.Tier{fedcore.TierIdentity, fedcore.TierF32, fedcore.TierI16, fedcore.TierI8} {
		enc := fedcore.NewEncoder(fedcore.CodecConfig{Tier: tier})
		var frame []byte
		d, _ = probe(n, func() { frame = enc.Encode(payload) })
		vals["fedcore.encode_us."+tier.String()] = micros(d)
		vals["fedcore.frame_bytes."+tier.String()] = float64(len(frame))
		var decErr error
		d, _ = probe(n, func() { dec, _, decErr = fedcore.DecodeFrame(frame, nil, dec) })
		if decErr != nil {
			return decErr
		}
		vals["fedcore.decode_us."+tier.String()] = micros(d)
	}
	for _, k := range []int{8, 64} {
		uploads := randomPayloads(rng, k, payloadDim)
		dst := make(fed.Payload, payloadDim)
		d, _ = probe(n, func() { fedcore.ReduceMeanInto(dst, uploads) })
		vals[fmt.Sprintf("fedcore.reduce_mean_us.k%d", k)] = micros(d)
	}
	const k = 8
	uploads := randomPayloads(rng, k, payloadDim)
	mix := randomPayloads(rng, k, payloadDim)
	weights := make([][]float64, k)
	for i := range weights {
		weights[i] = make([]float64, k)
		for j := range weights[i] {
			weights[i][j] = 1.0 / k
		}
	}
	d, _ = probe(n, func() { fedcore.WeightedMixInto(mix, weights, uploads) })
	vals["fedcore.weighted_mix_us.k8"] = micros(d)

	// B = 8 fresh submissions, the last of which commits (attention
	// aggregation included), as the swarm's server sees them.
	engine, err := fedcore.NewAsync(fed.NewAttention(seed), payload, fedcore.AsyncOptions{
		Options: fedcore.Options{K: k, Clients: k, Seed: seed}, StalenessBound: 4, Buffer: k,
	}, nil)
	if err != nil {
		return err
	}
	seq := 0
	var submitErr error
	d, _ = probe(n, func() {
		seq++
		base := engine.Engine().Round()
		for id := 0; id < k; id++ {
			if _, err := engine.Submit(id, seq, base, uploads[id]); err != nil {
				submitErr = err
			}
		}
	})
	if submitErr != nil {
		return submitErr
	}
	vals["fedcore.submit_commit_us"] = micros(d)
	return nil
}
