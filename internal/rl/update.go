package rl

import (
	"runtime"

	"repro/internal/autograd"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// useLanes decides whether optimize runs the critic on its own lane. A
// second goroutine pays only when a second P can run it, which the runtime
// reports; it is a variable so the in-package goldens can force either path.
var useLanes = func() bool { return runtime.GOMAXPROCS(0) > 1 }

// updateScratch owns every reusable buffer of the batched update pipeline,
// hoisting all per-call staging out of optimize so a steady-state Update
// performs no per-minibatch allocations: the shuffle index, the GAE output
// slices, and one set of minibatch staging plus a pooled tape per lane — the
// actor lane and the critic lane each stage their own copy of a minibatch's
// states, so neither ever reads what the other writes. Each agent embeds
// one; it is not safe for concurrent use, matching the agents'
// one-goroutine-per-agent contract.
type updateScratch struct {
	// idx is the epoch's shuffle: written between epochs by the caller only,
	// read by both lanes during one.
	idx []int

	// adv/targets receive the GAE pass (agent-owned so GAEInto can reuse
	// them across Update calls).
	adv, targets []float64

	// Minibatch staging, allocated at the largest batch seen so far (never
	// more than MiniBatch rows) and viewed down for a partial batch.
	// Rewritten fully for every batch.
	stagedRows int

	// Actor lane.
	actorStates, oldLogp, advantage *tensor.Matrix
	actions                         []int
	actorTape                       *autograd.Tape

	// Critic lane.
	criticStates, target *tensor.Matrix
	criticTape           *autograd.Tape
}

// ensure sizes the scratch for a buffer of n transitions under the given
// minibatch size and state dimension, allocating only on first use or growth.
// No batch is larger than the buffer, so that is all it stages: MiniBatch
// comes from a checkpoint and may be any number (DESIGN §9).
func (st *updateScratch) ensure(n, mb, stateDim int) {
	mb = min(mb, n)
	if st.actorTape == nil {
		st.actorTape = autograd.NewPooledTape(tensor.DefaultPool())
		st.criticTape = autograd.NewPooledTape(tensor.DefaultPool())
	}
	if cap(st.idx) < n {
		st.idx = make([]int, n)
	}
	st.idx = st.idx[:n]
	if cap(st.actions) < mb {
		st.actions = make([]int, mb)
	}
	if st.actorStates == nil || st.actorStates.Cols != stateDim || st.stagedRows < mb {
		st.actorStates = tensor.New(mb, stateDim)
		st.oldLogp = tensor.New(mb, 1)
		st.advantage = tensor.New(mb, 1)
		st.criticStates = tensor.New(mb, stateDim)
		st.target = tensor.New(mb, 1)
		st.stagedRows = mb
	}
}

// viewRows reslices a scratch matrix to its first rows rows (the final
// minibatch of an epoch is usually partial). The caller owns m and rewrites
// every viewed element before use.
func viewRows(m *tensor.Matrix, rows int) *tensor.Matrix {
	m.Rows = rows
	m.Data = m.Data[:rows*m.Cols]
	return m
}

// mPPOUpdates counts completed gradient updates across all agents.
var mPPOUpdates = obs.DefaultRegistry().Counter("pfrl_ppo_updates_total",
	"PPO gradient updates completed (all agents)")

// Update runs the clipped PPO update (Eqs. 10–12) over the buffer on the
// batched pipeline: GAE into agent-owned scratch, then the fused-surrogate
// minibatch loop of optimize. The actor uses advantages from the value
// estimates recorded in buf at collection time (the blend of Eq. 14 for a
// dual-critic agent), and with a public critic α is refreshed on the same
// buffer afterwards.
func (p *PPO) Update(buf *Buffer) UpdateStats {
	st := &p.upd
	st.adv, st.targets = buf.GAEInto(p.Cfg.Gamma, p.Cfg.Lambda, st.adv, st.targets)
	NormalizeInPlace(st.adv)
	stats := p.optimize(buf)
	p.RefreshAlpha(buf)
	return stats
}

// optimize runs the batched clipped-PPO optimization over the buffer against
// the advantages and targets in p.upd. Each epoch shuffles once and is then
// run by two lanes that share nothing but the read-only shuffle, buffer and
// GAE slices: the actor lane (actorEpoch, on the caller's goroutine) and the
// critic lane (criticEpoch). The two touch disjoint parameters, so when a
// second P is available the critic lane runs on a goroutine that lives for
// this one call and the lanes meet once per epoch; otherwise the caller runs
// the actor epoch and then the critic epoch. The epoch is the unit because
// one minibatch step costs about what a goroutine wake-up does. Either way
// every network sees its minibatches in the same order and the shuffle
// follows the join, so numerics, loss sums and RNG draws are bitwise
// identical to the historical one-op-per-node interleaved loop
// (TestBatchedUpdateMatchesReference, TestConcurrentUpdateMatchesSequential).
func (p *PPO) optimize(buf *Buffer) UpdateStats {
	n := buf.Len()
	if n == 0 {
		return UpdateStats{}
	}
	defer mPPOUpdates.Inc()
	cfg := &p.Cfg
	p.upd.ensure(n, cfg.MiniBatch, cfg.StateDim)
	idx := p.upd.idx
	for i := range idx {
		idx[i] = i
	}

	// The send publishes the fresh shuffle to the critic lane; the receive
	// of its loss sum joins the epoch before idx is written again. The
	// result is buffered so the lane can deliver and exit even when the
	// caller has gone (a panic on the actor lane).
	var epochs chan struct{}
	var criticSums chan float64
	if useLanes() {
		epochs = make(chan struct{})
		criticSums = make(chan float64, 1)
		go func() {
			for range epochs {
				criticSums <- p.criticEpoch(buf)
			}
		}()
		defer close(epochs)
	}

	batches := float64((n-1)/cfg.MiniBatch + 1)
	var stats UpdateStats
	for epoch := 0; epoch < cfg.UpdateEpochs; epoch++ {
		p.rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		if epochs != nil {
			epochs <- struct{}{}
		}
		actor := p.actorEpoch(buf)
		var critic float64
		if epochs != nil {
			critic = <-criticSums
		} else {
			critic = p.criticEpoch(buf)
		}
		stats = UpdateStats{
			ActorLoss:  actor.loss / batches,
			CriticLoss: critic / batches,
			Entropy:    actor.entropy / batches,
			ApproxKL:   actor.kl / batches,
			ClipFrac:   actor.clip / batches,
		}
	}
	return stats
}

// actorSums accumulates one epoch's actor-lane statistics in minibatch order.
type actorSums struct{ loss, entropy, kl, clip float64 }

// actorEpoch stages and optimizes every actor minibatch of the current
// shuffle on the actor tape: L = -E[min(r·A, clip(r)·A)] - c·H(π). It
// touches only the actor, its optimizer and the actor-lane scratch.
func (p *PPO) actorEpoch(buf *Buffer) actorSums {
	st, cfg := &p.upd, &p.Cfg
	steps := buf.Steps()
	var sums actorSums
	for lo := 0; lo < len(steps); lo += cfg.MiniBatch {
		bsz := min(cfg.MiniBatch, len(steps)-lo)
		states := viewRows(st.actorStates, bsz)
		oldLogp := viewRows(st.oldLogp, bsz)
		advantage := viewRows(st.advantage, bsz)
		actions := st.actions[:bsz]
		for bi, t := range st.idx[lo : lo+bsz] {
			copy(states.Row(bi), steps[t].State)
			actions[bi] = steps[t].Action
			oldLogp.Data[bi] = steps[t].LogProb
			advantage.Data[bi] = st.adv[t]
		}

		// Gradients are already zero here: parameters start with cleared
		// grads and Optimizer.Step consumes them, so no ZeroGrads sweep.
		at := st.actorTape
		at.Reset()
		logits := p.Actor.Forward(at, at.Const(states))
		res := autograd.ClippedSurrogateLoss(logits, actions, oldLogp, advantage, cfg.Clip, cfg.EntCoef)
		res.Loss.Backward()
		p.step(p.Actor, p.actorOpt)
		sums.loss += -res.Objective
		sums.entropy += res.Entropy
		// Approximate KL(π_old ‖ π_new) = E[log π_old − log π_new], and
		// the clip fraction: how often the surrogate actually clipped.
		klBatch, clipped := 0.0, 0
		for bi := 0; bi < bsz; bi++ {
			klBatch += oldLogp.Data[bi] - res.ActLogp[bi]
			if r := res.Ratio[bi]; r < 1-cfg.Clip || r > 1+cfg.Clip {
				clipped++
			}
		}
		sums.kl += klBatch / float64(bsz)
		sums.clip += float64(clipped) / float64(bsz)
	}
	return sums
}

// criticEpoch stages and optimizes every critic minibatch of the current
// shuffle on the critic tape and returns the summed loss: φ's regression,
// plus ψ's when there is one — two independent regressions toward the return
// targets at full strength (Eqs. 16–17), NOT one through the blended
// prediction, which would starve whichever critic currently has low α weight
// and degrade the uploads other clients aggregate. It touches only the
// critics, their optimizers and the critic-lane scratch, so it may run
// concurrently with actorEpoch over the same shuffle.
func (p *PPO) criticEpoch(buf *Buffer) float64 {
	st, cfg := &p.upd, &p.Cfg
	steps := buf.Steps()
	sum := 0.0
	for lo := 0; lo < len(steps); lo += cfg.MiniBatch {
		bsz := min(cfg.MiniBatch, len(steps)-lo)
		states := viewRows(st.criticStates, bsz)
		target := viewRows(st.target, bsz)
		for bi, t := range st.idx[lo : lo+bsz] {
			copy(states.Row(bi), steps[t].State)
			target.Data[bi] = st.targets[t]
		}

		// Critic grads are zero on entry for the same reason as the actor's:
		// each step below consumes them.
		ct := st.criticTape
		ct.Reset()
		in, tg := ct.Const(states), ct.Const(target)
		closs := valueLoss(p.Critic.Forward(ct, in), tg)
		if p.PublicCritic != nil {
			closs = autograd.Add(closs, valueLoss(p.PublicCritic.Forward(ct, in), tg))
		}
		closs.Backward()
		p.step(p.Critic, p.criticOpt)
		if p.PublicCritic != nil {
			p.step(p.PublicCritic, p.publicOpt)
		}
		sum += closs.Item()
	}
	return sum
}

// step turns net's accumulated gradients into one optimizer step: the
// FedProx pull toward the last global model when enabled (see Proximal;
// Apply only reads shared state, so both lanes may call it), the global norm
// clip, then Adam.
func (p *PPO) step(net *nn.MLP, opt *nn.Adam) {
	p.prox.Apply(net)
	nn.ClipGradNorm(net, p.Cfg.MaxGradNorm)
	opt.Step()
}
