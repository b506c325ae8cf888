package rl

import (
	"fmt"
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

// updateScratch owns the reusable buffers of the batched update pipeline, so
// a steady-state Update allocates nothing: the shuffle index, the GAE
// output slices, per lane a minibatch's state block, its per-transition
// columns and a pooled tape, and the critic lane's channels. Nothing it
// keeps between updates is as wide as a state: each lane stages its
// minibatch's states, expanded from the buffer's live-width rows, into a
// block borrowed from the tensor pool for the call (borrowStates), and the
// gradients are borrowed from it for the call too (nn.Parameter). Each
// agent embeds one; it is not safe for concurrent use, matching the
// agents' one-goroutine-per-agent contract.
type updateScratch struct {
	// idx is the epoch's shuffle: written between epochs by the caller only,
	// read by both lanes during one.
	idx []int

	// adv/targets receive the GAE pass (agent-owned so GAEInto can reuse
	// them across Update calls); returns receives the discounted returns
	// CriticLosses scores the critics against.
	adv, targets, returns []float64

	// Minibatch columns, allocated at the largest batch seen so far (never
	// more than MiniBatch rows; cap(actions) is that size) and viewed down
	// for a partial batch. Rewritten fully for every batch. The state
	// blocks are borrowed by stage and given back by unstage, both in
	// optimize, and the tapes hold pooled matrices only while optimize
	// runs.

	// Actor lane.
	actorStates, oldLogp, advantage *tensor.Matrix
	actions                         []int
	actorTape                       *autograd.Tape

	// Critic lane. epochs hands the running lane (runCriticLane) each
	// epoch's buffer, nil to end it; criticSums carries back its loss sum.
	criticStates, target *tensor.Matrix
	criticTape           *autograd.Tape
	epochs               chan *Buffer
	criticSums           chan float64

	// ties lists the state columns whose bits equal their left
	// neighbour's in every state of the buffer being optimized: padded
	// observation positions (§4.1) are −1 in every state a client sees.
	// Rebuilt by every optimize call before the lanes fork and read-only
	// while they run, it goes into both first layers with the staged
	// states (autograd.ConstTied).
	ties []int
}

// tiedColumns rebuilds the tie list from buf's states (see ties): every
// column starts as a candidate and each state, expanded into a borrowed
// row (borrowStates), narrows the list.
func (st *updateScratch) tiedColumns(buf *Buffer, stateDim int) {
	if cap(st.ties) < stateDim {
		st.ties = make([]int, 0, stateDim)
	}
	ties := st.ties[:0]
	for i := 1; i < stateDim; i++ {
		ties = append(ties, i)
	}
	state := borrowStates(1, stateDim)
	buf.voidRows(state)
	for i := 0; i < buf.Len() && len(ties) > 0; i++ {
		buf.scatter(state.Data, i)
		ties = tensor.NarrowTies(ties, state.Data)
	}
	tensor.Put(state)
	st.ties = ties
}

// stage borrows each lane's state block, rows x buf's state width
// (borrowStates), its void positions written once for the call: a
// minibatch then scatters only its states' live values into it.
func (st *updateScratch) stage(buf *Buffer, rows int) {
	st.actorStates = borrowStates(rows, buf.width())
	st.criticStates = borrowStates(rows, buf.width())
	buf.voidRows(st.actorStates)
	buf.voidRows(st.criticStates)
}

// unstage gives the lanes' state blocks back.
func (st *updateScratch) unstage() {
	tensor.Put(st.actorStates)
	tensor.Put(st.criticStates)
	st.actorStates, st.criticStates = nil, nil
}

// ensure sizes the scratch for a buffer of n transitions under the given
// minibatch size, allocating only on first use or growth. No batch is
// larger than the buffer, so that is all it sizes: MiniBatch comes from a
// checkpoint and may be any number (DESIGN §9).
func (st *updateScratch) ensure(n, mb int) {
	mb = min(mb, n)
	if st.actorTape == nil {
		st.actorTape = autograd.NewPooledTape(tensor.DefaultPool())
		st.criticTape = autograd.NewPooledTape(tensor.DefaultPool())
		st.epochs, st.criticSums = make(chan *Buffer), make(chan float64, 1)
	}
	if cap(st.idx) < n {
		st.idx = make([]int, n)
	}
	st.idx = st.idx[:n]
	if cap(st.actions) < mb {
		st.actions = make([]int, mb)
		st.oldLogp = tensor.New(mb, 1)
		st.advantage = tensor.New(mb, 1)
		st.target = tensor.New(mb, 1)
	}
}

// viewRows reslices a matrix to its first rows rows (the final minibatch of
// an epoch is usually partial), within its capacity. The caller owns m and
// rewrites every viewed element before use.
func viewRows(m *tensor.Matrix, rows int) *tensor.Matrix {
	m.Rows = rows
	m.Data = m.Data[:rows*m.Cols]
	return m
}

// mPPOUpdates counts completed gradient updates across all agents.
var mPPOUpdates = obs.DefaultRegistry().Counter("pfrl_ppo_updates_total",
	"PPO gradient updates completed (all agents)")

// The paper's fixed return and optimizer constants (§3.1).
const (
	gamma       = 0.99 // discount γ
	lambda      = 0.95 // GAE λ
	maxGradNorm = 0.5  // global gradient-norm clip of every optimizer step
)

// Update runs the clipped PPO update (Eqs. 10–12) over the buffer on the
// batched pipeline: GAE into agent-owned scratch, then the fused-surrogate
// minibatch loop of optimize. The actor uses advantages from the value
// estimates recorded in buf at collection time (the blend of Eq. 14 for a
// dual-critic agent), and with a public critic α is refreshed on the same
// buffer afterwards.
func (p *PPO) Update(buf *Buffer) UpdateStats {
	st := &p.upd
	st.adv, st.targets = buf.GAEInto(gamma, lambda, st.adv, st.targets)
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
	if w := buf.width(); w != cfg.StateDim {
		panic(fmt.Sprintf("rl: Update of a buffer of width-%d states by an agent of StateDim %d", w, cfg.StateDim))
	}
	p.upd.ensure(n, cfg.MiniBatch)
	p.upd.tiedColumns(buf, cfg.StateDim)
	p.upd.stage(buf, min(n, cfg.MiniBatch))
	idx := p.upd.idx
	for i := range idx {
		idx[i] = i
	}

	// The send of buf publishes the fresh shuffle to the critic lane; the
	// receive of its loss sum joins the epoch before idx is written again.
	// The sums are buffered so the lane can deliver and exit even when the
	// caller has gone (a panic on the actor lane); that sum is dropped.
	lanes := useLanes()
	if lanes {
		go runCriticLane()
		criticStart <- p
		defer func() {
			p.upd.epochs <- nil
			if len(p.upd.criticSums) > 0 {
				<-p.upd.criticSums
			}
		}()
	}

	batches := float64((n-1)/cfg.MiniBatch + 1)
	var stats UpdateStats
	for epoch := 0; epoch < cfg.UpdateEpochs; epoch++ {
		p.rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		if lanes {
			p.upd.epochs <- buf
		}
		actor := p.actorEpoch(buf)
		var critic float64
		if lanes {
			critic = <-p.upd.criticSums
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
	// Both lanes have joined: hand the last minibatch's tape matrices, the
	// state blocks and the gradients back to the pool, now rather than at
	// this agent's next Update. Parked on every idle agent of a swarm, they
	// would be the largest per-client share of its heap (DESIGN §8
	// "Per-client footprint").
	p.upd.actorTape.Reset()
	p.upd.criticTape.Reset()
	p.upd.unstage()
	nn.ReleaseGrads(p.Actor)
	nn.ReleaseGrads(p.Critic)
	if p.PublicCritic != nil {
		nn.ReleaseGrads(p.PublicCritic)
	}
	return stats
}

// criticStart hands an agent to the critic lane started for its update, as
// laneStart hands a value lane to runValueLane: the go statement needs no
// closure, and reuses an exited goroutine when the runtime has one. Its
// buffer, laneStart's size, lets a caller hand over without waiting for the
// lane to be scheduled; every send follows its own go statement.
var criticStart = make(chan *PPO, 16)

// runCriticLane runs one critic epoch per buffer its agent's epochs channel
// delivers, until nil.
func runCriticLane() {
	p := <-criticStart
	for buf := <-p.upd.epochs; buf != nil; buf = <-p.upd.epochs {
		p.upd.criticSums <- p.criticEpoch(buf)
	}
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
			buf.scatter(states.Row(bi), t)
			actions[bi] = steps[t].Action
			oldLogp.Data[bi] = steps[t].LogProb
			advantage.Data[bi] = st.adv[t]
		}

		// Gradients are +0 here: the first Forward borrows zeroed storage
		// and Optimizer.Step consumes it, so no ZeroGrads sweep.
		at := st.actorTape
		at.Reset()
		logits := p.Actor.Forward(at, at.ConstTied(states, st.ties))
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
			buf.scatter(states.Row(bi), t)
			target.Data[bi] = st.targets[t]
		}

		// Critic grads are zero on entry for the same reason as the actor's:
		// each step below consumes them.
		ct := st.criticTape
		ct.Reset()
		in, tg := ct.ConstTied(states, st.ties), ct.Const(target)
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

// step turns net's accumulated gradients into one optimizer step: Adam on
// the gradients clipped to the global norm maxGradNorm, the clip's factor
// applied as Adam loads each gradient.
func (p *PPO) step(net *nn.MLP, opt *nn.Adam) {
	_, scale := nn.ClipGradNorm(net, maxGradNorm)
	opt.StepScaled(scale)
}
