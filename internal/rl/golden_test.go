package rl

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/autograd"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// forceLanes pins the update to the lanes (on) or to the sequential path for
// the rest of the test, whatever GOMAXPROCS is.
func forceLanes(t *testing.T, on bool) {
	t.Helper()
	prev := useLanes
	useLanes = func() bool { return on }
	t.Cleanup(func() { useLanes = prev })
}

// criticModule pairs a critic network with its optimizer for the frozen
// reference loop.
type criticModule struct {
	net *nn.MLP
	opt *nn.Adam
}

// ppoUpdateSpec is the frozen reference loop's input: the shape the product
// update took before it became methods on the agent.
type ppoUpdateSpec struct {
	cfg     Config
	rng     *rand.Rand
	buf     *Buffer
	adv     []float64
	targets []float64

	actor    *nn.MLP
	actorOpt *nn.Adam

	// criticLoss builds the scalar critic loss.
	criticLoss    func(tape *autograd.Tape, states, targets *autograd.Value) *autograd.Value
	criticModules []criticModule
}

// ppoUpdateReference is a frozen verbatim copy of the pre-pipeline ppoUpdate
// loop: one op per tape node (no fused surrogate), a single shared tape,
// pool-sourced staging per minibatch, strictly sequential actor-then-critic
// order. It exists only as the golden reference the batched pipeline must
// match bit for bit.
func ppoUpdateReference(s ppoUpdateSpec) UpdateStats {
	steps := s.buf.Steps()
	n := len(steps)
	if n == 0 {
		return UpdateStats{}
	}
	stateDim := s.cfg.StateDim
	var stats UpdateStats

	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	tape := autograd.NewPooledTape(tensor.DefaultPool())
	defer tape.Reset()
	actions := make([]int, s.cfg.MiniBatch)
	for epoch := 0; epoch < s.cfg.UpdateEpochs; epoch++ {
		s.rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		epochActor, epochCritic, epochEntropy := 0.0, 0.0, 0.0
		epochKL, epochClip := 0.0, 0.0
		batches := 0
		for lo := 0; lo < n; lo += s.cfg.MiniBatch {
			hi := lo + s.cfg.MiniBatch
			if hi > n {
				hi = n
			}
			bsz := hi - lo
			states := tensor.Get(bsz, stateDim)
			actions := actions[:bsz]
			oldLogp := tensor.Get(bsz, 1)
			advantage := tensor.Get(bsz, 1)
			target := tensor.Get(bsz, 1)
			for bi := 0; bi < bsz; bi++ {
				t := idx[lo+bi]
				s.buf.State(t, states.Row(bi))
				actions[bi] = steps[t].Action
				oldLogp.Data[bi] = steps[t].LogProb
				advantage.Data[bi] = s.adv[t]
				target.Data[bi] = s.targets[t]
			}

			nn.ZeroGrads(s.actor)
			tape.Reset()
			sIn := tape.Const(states)
			logits := s.actor.Forward(tape, sIn)
			logp := autograd.LogSoftmaxRows(logits)
			actLogp := autograd.PickCols(logp, actions)
			ratio := autograd.Exp(autograd.Sub(actLogp, tape.Const(oldLogp)))
			advC := tape.Const(advantage)
			surr1 := autograd.Mul(ratio, advC)
			surr2 := autograd.Mul(autograd.Clamp(ratio, 1-s.cfg.Clip, 1+s.cfg.Clip), advC)
			objective := autograd.Mean(autograd.Minimum(surr1, surr2))
			probs := autograd.SoftmaxRows(logits)
			entropy := autograd.Neg(autograd.Mean(autograd.SumRows(autograd.Mul(probs, logp))))
			loss := autograd.Sub(autograd.Neg(objective), autograd.Scale(entropy, s.cfg.EntCoef))
			loss.Backward()
			twoPassClip(s.actor, maxGradNorm)
			s.actorOpt.Step()
			epochActor += -objective.Item()
			epochEntropy += entropy.Item()
			klBatch, clipped := 0.0, 0
			for bi := 0; bi < bsz; bi++ {
				klBatch += oldLogp.Data[bi] - actLogp.Data.Data[bi]
				if r := ratio.Data.Data[bi]; r < 1-s.cfg.Clip || r > 1+s.cfg.Clip {
					clipped++
				}
			}
			epochKL += klBatch / float64(bsz)
			epochClip += float64(clipped) / float64(bsz)

			for _, cm := range s.criticModules {
				nn.ZeroGrads(cm.net)
			}
			tape.Reset()
			closs := s.criticLoss(tape, tape.Const(states), tape.Const(target))
			closs.Backward()
			for _, cm := range s.criticModules {
				twoPassClip(cm.net, maxGradNorm)
				cm.opt.Step()
			}
			epochCritic += closs.Item()
			tensor.Put(states)
			tensor.Put(oldLogp)
			tensor.Put(advantage)
			tensor.Put(target)
			batches++
		}
		if batches > 0 {
			stats = UpdateStats{
				ActorLoss:  epochActor / float64(batches),
				CriticLoss: epochCritic / float64(batches),
				Entropy:    epochEntropy / float64(batches),
				ApproxKL:   epochKL / float64(batches),
				ClipFrac:   epochClip / float64(batches),
			}
		}
	}
	return stats
}

// twoPassClip is a frozen copy of the gradient-norm clip as the reference
// loop ran it: the global norm's serial sum, then every gradient rescaled
// in place (ScaleInPlace) when the norm exceeds maxNorm.
func twoPassClip(net *nn.MLP, maxNorm float64) {
	total := 0.0
	for _, p := range net.Params() {
		if p.Grad == nil {
			continue
		}
		for _, g := range p.Grad.Data {
			total += g * g
		}
	}
	if norm := math.Sqrt(total); maxNorm > 0 && norm > maxNorm {
		scale := maxNorm / (norm + 1e-12)
		for _, p := range net.Params() {
			if p.Grad != nil {
				p.Grad.ScaleInPlace(scale)
			}
		}
	}
}

// referencePPOUpdate mirrors PPO.Update on the frozen reference loop.
func referencePPOUpdate(p *PPO, buf *Buffer) UpdateStats {
	adv, targets := buf.GAEInto(gamma, lambda, nil, nil)
	NormalizeInPlace(adv)
	return ppoUpdateReference(ppoUpdateSpec{
		cfg:      p.Cfg,
		rng:      p.rng,
		buf:      buf,
		adv:      adv,
		targets:  targets,
		actor:    p.Actor,
		actorOpt: p.actorOpt,
		criticLoss: func(tape *autograd.Tape, states, targets *autograd.Value) *autograd.Value {
			return valueLoss(p.Critic.Forward(tape, states), targets)
		},
		criticModules: []criticModule{{net: p.Critic, opt: p.criticOpt}},
	})
}

// referenceDualUpdate mirrors a dual-critic agent's Update (without the trailing
// RefreshAlpha, which both callers run identically outside the loop).
func referenceDualUpdate(d *PPO, buf *Buffer) UpdateStats {
	adv, targets := buf.GAEInto(gamma, lambda, nil, nil)
	NormalizeInPlace(adv)
	return ppoUpdateReference(ppoUpdateSpec{
		cfg:      d.Cfg,
		rng:      d.rng,
		buf:      buf,
		adv:      adv,
		targets:  targets,
		actor:    d.Actor,
		actorOpt: d.actorOpt,
		criticLoss: func(tape *autograd.Tape, states, targets *autograd.Value) *autograd.Value {
			vl := d.Critic.Forward(tape, states)
			vp := d.PublicCritic.Forward(tape, states)
			return autograd.Add(valueLoss(vl, targets), valueLoss(vp, targets))
		},
		criticModules: []criticModule{
			{net: d.Critic, opt: d.criticOpt},
			{net: d.PublicCritic, opt: d.publicOpt},
		},
	})
}

func requireStatsEqual(t *testing.T, label string, want, got UpdateStats) {
	t.Helper()
	pairs := []struct {
		name string
		a, b float64
	}{
		{"ActorLoss", want.ActorLoss, got.ActorLoss},
		{"CriticLoss", want.CriticLoss, got.CriticLoss},
		{"Entropy", want.Entropy, got.Entropy},
		{"ApproxKL", want.ApproxKL, got.ApproxKL},
		{"ClipFrac", want.ClipFrac, got.ClipFrac},
	}
	for _, p := range pairs {
		if math.Float64bits(p.a) != math.Float64bits(p.b) {
			t.Fatalf("%s: %s differs: reference %v vs pipeline %v", label, p.name, p.a, p.b)
		}
	}
}

func requireParamsEqual(t *testing.T, label string, want, got nn.Module) {
	t.Helper()
	w, g := nn.FlattenParams(want), nn.FlattenParams(got)
	if len(w) != len(g) {
		t.Fatalf("%s: parameter count differs %d vs %d", label, len(w), len(g))
	}
	for i := range w {
		if math.Float64bits(w[i]) != math.Float64bits(g[i]) {
			t.Fatalf("%s: parameter %d differs: reference %v (%#x) vs pipeline %v (%#x)",
				label, i, w[i], math.Float64bits(w[i]), g[i], math.Float64bits(g[i]))
		}
	}
}

// collectBuffer fills buf with at least minSteps transitions using a
// dedicated collector agent, so the agents under test keep identical rng
// streams for their updates; padded collects from NewPaddedSyntheticEnv.
func collectBuffer(t *testing.T, padded bool, stateDim, numActions, minSteps int, seed int64) *Buffer {
	t.Helper()
	env := NewSyntheticEnv(stateDim, numActions, 32, seed)
	if padded {
		env = NewPaddedSyntheticEnv(stateDim, numActions, 32, seed)
	}
	collector := NewPPO(DefaultConfig(stateDim, numActions), rand.New(rand.NewSource(seed)))
	var buf Buffer
	for buf.Len() < minSteps {
		env.Reset()
		CollectEpisode(env, collector, &buf)
	}
	return &buf
}

// TestBatchedUpdateMatchesReference pins golden property (a): the batched
// pipeline (fused surrogate head, hoisted scratch, dual tapes) produces
// parameters and statistics bitwise identical to the frozen pre-change
// sequential update, across several rounds so Adam state and scratch reuse
// are exercised. Runs on the sequential path so the only variable is the
// pipeline restructure itself; TestConcurrentUpdateMatchesSequential covers
// the lanes. The padded variants collect from NewPaddedSyntheticEnv: the
// pipeline's first layers then take their weight gradients through the tie
// list, while the reference's plain Const inputs take the plain product.
func TestBatchedUpdateMatchesReference(t *testing.T) {
	forceLanes(t, false)

	const stateDim, numActions = 24, 5
	for _, padded := range []bool{false, true} {
		suffix := ""
		if padded {
			suffix = "-padded"
		}
		t.Run("ppo"+suffix, func(t *testing.T) {
			ref := NewPPO(DefaultConfig(stateDim, numActions), rand.New(rand.NewSource(99)))
			pipe := NewPPO(DefaultConfig(stateDim, numActions), rand.New(rand.NewSource(99)))
			for round := 0; round < 3; round++ {
				buf := collectBuffer(t, padded, stateDim, numActions, 150, int64(70+round))
				ws := referencePPOUpdate(ref, buf)
				gs := pipe.Update(buf)
				requireStatsEqual(t, "ppo stats", ws, gs)
				requireParamsEqual(t, "ppo actor", ref.Actor, pipe.Actor)
				requireParamsEqual(t, "ppo critic", ref.Critic, pipe.Critic)
			}
		})
		t.Run("dual-critic"+suffix, func(t *testing.T) {
			ref := NewDualCriticPPO(DefaultConfig(stateDim, numActions), rand.New(rand.NewSource(101)))
			pipe := NewDualCriticPPO(DefaultConfig(stateDim, numActions), rand.New(rand.NewSource(101)))
			for round := 0; round < 2; round++ {
				buf := collectBuffer(t, padded, stateDim, numActions, 150, int64(80+round))
				ws := referenceDualUpdate(ref, buf)
				gs := pipe.Update(buf)
				requireStatsEqual(t, "dual stats", ws, gs)
				requireParamsEqual(t, "dual actor", ref.Actor, pipe.Actor)
				requireParamsEqual(t, "dual local critic", ref.Critic, pipe.Critic)
				requireParamsEqual(t, "dual public critic", ref.PublicCritic, pipe.PublicCritic)
			}
		})
	}
}

// laneCases are the update configurations the lanes golden runs: every
// feature that puts state on the critic lane.
var laneCases = []struct {
	name string
	// build returns a fresh agent and its networks, actor first; calling it
	// twice gives bit-identical twins.
	build func() (*PPO, []nn.Module)
	// padded collects the case's buffers from NewPaddedSyntheticEnv.
	padded bool
}{
	{name: "ppo", build: func() (*PPO, []nn.Module) {
		p := NewPPO(DefaultConfig(laneStateDim, laneActions), rand.New(rand.NewSource(55)))
		return p, []nn.Module{p.Actor, p.Critic}
	}},
	{name: "dual-critic", build: func() (*PPO, []nn.Module) {
		d := NewDualCriticPPO(DefaultConfig(laneStateDim, laneActions), rand.New(rand.NewSource(56)))
		return d, []nn.Module{d.Actor, d.Critic, d.PublicCritic}
	}},
	{name: "ppo-padded", padded: true, build: func() (*PPO, []nn.Module) {
		p := NewPPO(DefaultConfig(laneStateDim, laneActions), rand.New(rand.NewSource(59)))
		return p, []nn.Module{p.Actor, p.Critic}
	}},
	{name: "dual-critic-padded", padded: true, build: func() (*PPO, []nn.Module) {
		d := NewDualCriticPPO(DefaultConfig(laneStateDim, laneActions), rand.New(rand.NewSource(60)))
		return d, []nn.Module{d.Actor, d.Critic, d.PublicCritic}
	}},
}

const laneStateDim, laneActions = 24, 5

// bufferOfLen returns a buffer of exactly n collected transitions.
func bufferOfLen(t *testing.T, padded bool, n int, seed int64) *Buffer {
	t.Helper()
	var buf Buffer
	src := collectBuffer(t, padded, laneStateDim, laneActions, n, seed)
	for i, tr := range src.Steps()[:n] {
		buf.Add(src.State(i, nil), tr)
	}
	return &buf
}

// TestConcurrentUpdateMatchesSequential pins golden property (c): running
// the actor and the critic(s) of an epoch on two lanes that join at the
// epoch boundary is bitwise identical to running the actor epoch and then
// the critic epoch on one goroutine — parameters, statistics and the
// agent's RNG position (the next SelectAction draw) — for every update
// feature that lives on the critic lane, and on padded buffers, whose tie
// list both lanes read, at buffer lengths around the minibatch boundary,
// over three rounds so Adam state and scratch reuse are exercised.
// Exercised under -race by make test-race, where a join that lets the next
// shuffle overlap the critic lane is a reported race on the shuffle index.
func TestConcurrentUpdateMatchesSequential(t *testing.T) {
	probe := make([]float64, laneStateDim)
	for i := range probe {
		probe[i] = float64(i%5) - 2
	}
	for _, tc := range laneCases {
		for _, n := range []int{1, 63, 64, 65, 150} {
			t.Run(fmt.Sprintf("%s/n=%d", tc.name, n), func(t *testing.T) {
				seq, seqNets := tc.build()
				lanes, laneNets := tc.build()
				for round := 0; round < 3; round++ {
					buf := bufferOfLen(t, tc.padded, n, int64(60+round))
					forceLanes(t, false)
					ws := seq.Update(buf)
					forceLanes(t, true)
					gs := lanes.Update(buf)
					requireStatsEqual(t, "lanes stats", ws, gs)
					for i := range seqNets {
						requireParamsEqual(t, fmt.Sprintf("lanes network %d", i), seqNets[i], laneNets[i])
					}
					wa, wl := seq.SelectAction(probe)
					ga, gl := lanes.SelectAction(probe)
					if wa != ga || math.Float64bits(wl) != math.Float64bits(gl) {
						t.Fatalf("round %d: next draw differs: sequential (%d, %v) vs lanes (%d, %v)", round, wa, wl, ga, gl)
					}
				}
			})
		}
	}
}

// bruteStateTies lists the columns c ≥ 1 whose bits equal column c−1's in
// every state of buf, by direct comparison.
func bruteStateTies(buf *Buffer, stateDim int) []int {
	ties := []int{}
	var state []float64
	for c := 1; c < stateDim; c++ {
		tied := true
		for i := range buf.Len() {
			state = buf.State(i, state)
			tied = tied && math.Float64bits(state[c]) == math.Float64bits(state[c-1])
		}
		if tied {
			ties = append(ties, c)
		}
	}
	return ties
}

// TestUpdateTieListMatchesScan pins the per-Update tie list: it is the
// brute-force scan of the buffer's states, and the next Update rebuilds it
// after Buffer.Add, a write into a stored state or Buffer.Reset changes
// them.
func TestUpdateTieListMatchesScan(t *testing.T) {
	const stateDim, numActions = laneStateDim, laneActions
	agent := NewPPO(DefaultConfig(stateDim, numActions), rand.New(rand.NewSource(61)))
	check := func(label string, buf *Buffer, want []int) {
		t.Helper()
		agent.Update(buf)
		got := agent.upd.ties
		if brute := bruteStateTies(buf, stateDim); !slices.Equal(got, brute) {
			t.Fatalf("%s: tie list %v, brute-force scan %v", label, got, brute)
		}
		if want != nil && !slices.Equal(got, want) {
			t.Fatalf("%s: tie list %v, want %v", label, got, want)
		}
	}

	buf := collectBuffer(t, true, stateDim, numActions, 100, 62)
	check("padded", buf, []int{1, 2, 10, 11, 12, 13, 21, 22, 23})

	// An added state whose void run at 9–13 is broken at column 11 unties
	// columns 11 and 12.
	odd := buf.State(0, nil)
	odd[11] = 0.5
	buf.Add(odd, Transition{Action: 0})
	check("after Add", buf, []int{1, 2, 10, 13, 21, 22, 23})

	// A write into a stored state, which moves no generation, is seen too:
	// breaking the void run at 0–2 in one state unties columns 1 and 2.
	buf.row(0)[1] = 0.25
	check("after a write into a stored state", buf, []int{10, 13, 21, 22, 23})

	// Reset and a dense refill: nothing is tied any more.
	buf.Reset()
	env := NewSyntheticEnv(stateDim, numActions, 32, 63)
	for buf.Len() < 100 {
		env.Reset()
		CollectEpisode(env, agent, buf)
	}
	check("after Reset", buf, []int{})
}

// TestPPOUpdateSteadyStateAllocs pins the hoisted-staging claim: after
// warmup, a full PPO update allocates at most a handful of objects (the
// critic closure and module slice built per call; on the lanes path also
// the two channels and the lane goroutine) — no per-minibatch or per-epoch
// allocations survive on either path.
func TestPPOUpdateSteadyStateAllocs(t *testing.T) {
	prevProcs := runtime.GOMAXPROCS(1) // deterministic pool reuse
	defer runtime.GOMAXPROCS(prevProcs)

	for _, lanes := range []bool{false, true} {
		forceLanes(t, lanes)
		env := NewSyntheticEnv(benchStateDim, benchActions, benchHorizon, 3)
		agent := benchAgent(4)
		var buf Buffer
		benchBuffer(env, env.Reset, agent, &buf, 256)
		for i := 0; i < 2; i++ { // warm tapes, pool, and staging
			agent.Update(&buf)
		}
		allocs := testing.AllocsPerRun(5, func() {
			agent.Update(&buf)
		})
		if allocs > 16 {
			t.Fatalf("lanes=%v: PPO update allocates %.1f objects/op, want <= 16", lanes, allocs)
		}
	}
}
