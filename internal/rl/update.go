package rl

import (
	"math/rand"
	"runtime"

	"repro/internal/autograd"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// useLanes decides whether ppoUpdate runs the critic on its own lane. A
// second goroutine pays only when a second P can run it, which the runtime
// reports; it is a variable so the in-package goldens can force either path.
var useLanes = func() bool { return runtime.GOMAXPROCS(0) > 1 }

// updateScratch owns every reusable buffer of the batched update pipeline,
// hoisting all per-call staging out of ppoUpdate so a steady-state Update
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

	// Minibatch staging, allocated at MiniBatch rows and viewed down for the
	// final partial batch. Rewritten fully for every batch.
	stagedRows int

	// Actor lane.
	actorStates, oldLogp, advantage *tensor.Matrix
	actions                         []int
	actorTape                       *autograd.Tape

	// Critic lane.
	criticStates, target, oldValue *tensor.Matrix
	criticTape                     *autograd.Tape
}

// ensure sizes the scratch for a buffer of n transitions under the given
// minibatch size and state dimension, allocating only on first use or growth.
func (st *updateScratch) ensure(n, mb, stateDim int) {
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
		st.oldValue = tensor.New(mb, 1)
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

// criticModule pairs a critic network with its optimizer for the shared
// update loop.
type criticModule struct {
	net *nn.MLP
	opt *nn.Adam
}

// ppoUpdateSpec feeds the shared minibatch update loop used by both PPO and
// DualCriticPPO. criticLoss produces the scalar loss to minimize for the
// critic networks (a single MSE for PPO; the sum of the two independent
// regressions of Eqs. 16–17 for the dual critic); every module in
// criticModules is stepped.
type ppoUpdateSpec struct {
	cfg Config
	rng *rand.Rand
	// scratch is the agent-owned staging state; required.
	scratch *updateScratch
	buf     *Buffer
	adv     []float64
	targets []float64

	actor    *nn.MLP
	actorOpt *nn.Adam

	// criticLoss builds the scalar critic loss; oldValues holds the
	// collection-time value estimates (for PPO2-style value clipping).
	criticLoss    func(tape *autograd.Tape, states, targets, oldValues *autograd.Value) *autograd.Value
	criticModules []criticModule

	// prox, when non-nil, applies FedProx regularization to every stepped
	// module (see Proximal). Apply only reads shared state, so the actor and
	// critic goroutines may both call it concurrently.
	prox *Proximal
}

// mPPOUpdates counts completed gradient updates across all agents.
var mPPOUpdates = obs.DefaultRegistry().Counter("pfrl_ppo_updates_total",
	"PPO gradient updates completed (all agents)")

// ppoUpdate runs the batched clipped-PPO optimization over the buffer. Each
// epoch shuffles once and is then run by two lanes that share nothing but
// the read-only shuffle, buffer and GAE slices: the actor lane (actorEpoch,
// on the caller's goroutine) and the critic lane (criticEpoch). The two
// touch disjoint parameters, so when a second P is available the critic
// lane runs on a goroutine that lives for this one call and the lanes meet
// once per epoch; otherwise the caller runs the actor epoch and then the
// critic epoch. The epoch is the unit because one minibatch step costs
// about what a goroutine wake-up does. Either way every network sees its
// minibatches in the same order and the shuffle follows the join, so
// numerics, loss sums and RNG draws are bitwise identical to the historical
// one-op-per-node interleaved loop (TestBatchedUpdateMatchesReference,
// TestConcurrentUpdateMatchesSequential).
func ppoUpdate(s ppoUpdateSpec) UpdateStats {
	n := s.buf.Len()
	if n == 0 {
		return UpdateStats{}
	}
	defer mPPOUpdates.Inc()
	st := s.scratch
	st.ensure(n, s.cfg.MiniBatch, s.cfg.StateDim)
	idx := st.idx
	for i := range idx {
		idx[i] = i
	}

	// The send publishes the fresh shuffle to the critic lane; the receive
	// of its loss sum joins the epoch before idx is written again. The
	// result is buffered so the lane can deliver and exit even when the
	// caller has gone (a panic on the actor lane).
	var epochs chan struct{}
	var criticSums chan float64
	if useLanes() && len(s.criticModules) > 0 {
		epochs = make(chan struct{})
		criticSums = make(chan float64, 1)
		go func() {
			for range epochs {
				criticSums <- criticEpoch(&s)
			}
		}()
		defer close(epochs)
	}

	batches := float64((n + s.cfg.MiniBatch - 1) / s.cfg.MiniBatch)
	var stats UpdateStats
	for epoch := 0; epoch < s.cfg.UpdateEpochs; epoch++ {
		s.rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		if epochs != nil {
			epochs <- struct{}{}
		}
		actor := actorEpoch(&s)
		var critic float64
		if epochs != nil {
			critic = <-criticSums
		} else {
			critic = criticEpoch(&s)
		}
		stats = UpdateStats{
			ActorLoss:  actor.loss / batches,
			CriticLoss: critic / batches,
			Entropy:    actor.entropy / batches,
			ApproxKL:   actor.kl / batches,
			ClipFrac:   actor.clip / batches,
		}
		if s.cfg.TargetKL > 0 && stats.ApproxKL > s.cfg.TargetKL {
			break // the policy moved far enough; further epochs overfit the batch
		}
	}
	return stats
}

// actorSums accumulates one epoch's actor-lane statistics in minibatch order.
type actorSums struct{ loss, entropy, kl, clip float64 }

// actorEpoch stages and optimizes every actor minibatch of the current
// shuffle on the actor tape: L = -E[min(r·A, clip(r)·A)] - c·H(π). It
// touches only the actor, its optimizer and the actor-lane scratch.
func actorEpoch(s *ppoUpdateSpec) actorSums {
	st := s.scratch
	steps := s.buf.Steps()
	var sums actorSums
	for lo := 0; lo < len(steps); lo += s.cfg.MiniBatch {
		bsz := min(s.cfg.MiniBatch, len(steps)-lo)
		states := viewRows(st.actorStates, bsz)
		oldLogp := viewRows(st.oldLogp, bsz)
		advantage := viewRows(st.advantage, bsz)
		actions := st.actions[:bsz]
		for bi, t := range st.idx[lo : lo+bsz] {
			copy(states.Row(bi), steps[t].State)
			actions[bi] = steps[t].Action
			oldLogp.Data[bi] = steps[t].LogProb
			advantage.Data[bi] = s.adv[t]
		}

		// Gradients are already zero here: parameters start with cleared
		// grads and Optimizer.Step consumes them, so no ZeroGrads sweep.
		at := st.actorTape
		at.Reset()
		logits := s.actor.Forward(at, at.Const(states))
		res := autograd.ClippedSurrogateLoss(logits, actions, oldLogp, advantage, s.cfg.Clip, s.cfg.EntCoef)
		res.Loss.Backward()
		if s.prox != nil {
			s.prox.Apply(s.actor)
		}
		nn.ClipGradNorm(s.actor, s.cfg.MaxGradNorm)
		s.actorOpt.Step()
		sums.loss += -res.Objective
		sums.entropy += res.Entropy
		// Approximate KL(π_old ‖ π_new) = E[log π_old − log π_new], and
		// the clip fraction: how often the surrogate actually clipped.
		klBatch, clipped := 0.0, 0
		for bi := 0; bi < bsz; bi++ {
			klBatch += oldLogp.Data[bi] - res.ActLogp[bi]
			if r := res.Ratio[bi]; r < 1-s.cfg.Clip || r > 1+s.cfg.Clip {
				clipped++
			}
		}
		sums.kl += klBatch / float64(bsz)
		sums.clip += float64(clipped) / float64(bsz)
	}
	return sums
}

// criticEpoch stages and optimizes every critic minibatch of the current
// shuffle on the critic tape and returns the summed loss. It touches only
// the critic modules, their optimizers and the critic-lane scratch, so it
// may run concurrently with actorEpoch over the same shuffle.
func criticEpoch(s *ppoUpdateSpec) float64 {
	st := s.scratch
	steps := s.buf.Steps()
	sum := 0.0
	for lo := 0; lo < len(steps); lo += s.cfg.MiniBatch {
		bsz := min(s.cfg.MiniBatch, len(steps)-lo)
		states := viewRows(st.criticStates, bsz)
		target := viewRows(st.target, bsz)
		oldValue := viewRows(st.oldValue, bsz)
		for bi, t := range st.idx[lo : lo+bsz] {
			copy(states.Row(bi), steps[t].State)
			target.Data[bi] = s.targets[t]
			oldValue.Data[bi] = steps[t].Value
		}

		// Critic grads are zero on entry for the same reason as the actor's:
		// each cm.opt.Step() below consumes them.
		ct := st.criticTape
		ct.Reset()
		closs := s.criticLoss(ct, ct.Const(states), ct.Const(target), ct.Const(oldValue))
		closs.Backward()
		for _, cm := range s.criticModules {
			if s.prox != nil {
				s.prox.Apply(cm.net)
			}
			nn.ClipGradNorm(cm.net, s.cfg.MaxGradNorm)
			cm.opt.Step()
		}
		sum += closs.Item()
	}
	return sum
}
