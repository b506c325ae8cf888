// Package rl implements the paper's learner, one agent type (PPO):
// clipped-surrogate PPO (Schulman et al. 2017, Eqs. 10–12 of the paper) with
// the critic φ, and — built by NewDualCriticPPO, the client-side half of
// PFRL-DM (§4.3) — a public critic ψ beside it, the two value estimates
// blended with an adaptive weight α derived from their respective losses
// (Eqs. 14–15), both regressed toward the observed returns (Eqs. 16–17).
// Nothing outside the package asks an agent which kind it is: it reads
// PublicCritic and Alpha.
package rl

import "math"

// Transition is one step of experience.
type Transition struct {
	// State is the observation the action was taken on. Recorded by
	// CollectEpisode it is a view of the Buffer's own storage, valid until
	// the Buffer's Reset.
	State   []float64
	Action  int
	Reward  float64
	LogProb float64 // log π_old(a|s) at collection time
	Value   float64 // V(s) estimate at collection time (blended for dual-critic)
	Done    bool    // episode ended after this transition (terminal or truncated)

	// Truncated marks a Done transition whose episode was cut by a horizon
	// or step cap rather than reaching a true terminal state. The MDP would
	// have continued, so advantage and return estimation bootstrap the tail
	// with Bootstrap instead of zero — a zero bootstrap at a cut treats the
	// remaining return as worthless and biases every advantage upstream of
	// the boundary.
	Truncated bool
	// Bootstrap is the critic's estimate V(s_{t+1}) of the state after a
	// truncated transition (recorded by the collector); ignored unless
	// Truncated is set.
	Bootstrap float64
}

// Buffer accumulates an on-policy trajectory batch.
type Buffer struct {
	steps []Transition
	// tailValue bootstraps a batch whose final transition is not Done — a
	// mid-episode batch cut without an environment signal (see SetTailValue).
	tailValue float64

	// chunks is the state storage CollectEpisode records into: fixed-size
	// blocks, so a stored row is never moved and nothing is over-grown.
	// chunks[:chunk] are full, chunks[chunk] is being filled; Reset rewinds
	// and the next episode overwrites the same memory.
	chunks [][]float64
	chunk  int
	// obs is the observation scratch CollectEpisode hands to env.Observe,
	// kept across episodes.
	obs []float64
}

// stateChunkRows is how many observations one storage chunk holds. Small
// enough that rounding a short episode up to whole chunks costs little when
// a hundred clients each hold a buffer (at 256 rows swarm_104_async's peak
// RSS rose 4 %; at 64 it does not move), large enough that a long episode is
// a few dozen chunks.
const stateChunkRows = 64

// Add appends one transition. The buffer stores t.State as given; the
// caller must not reuse that slice while the transition is held.
func (b *Buffer) Add(t Transition) { b.steps = append(b.steps, t) }

// storeState copies state into the buffer's own storage and returns the
// copy, a view that stays valid until Reset.
func (b *Buffer) storeState(state []float64) []float64 {
	d := len(state)
	for b.chunk < len(b.chunks) && len(b.chunks[b.chunk])+d > cap(b.chunks[b.chunk]) {
		b.chunk++
	}
	if b.chunk == len(b.chunks) {
		b.chunks = append(b.chunks, make([]float64, 0, stateChunkRows*d))
	}
	c := append(b.chunks[b.chunk], state...)
	b.chunks[b.chunk] = c
	return c[len(c)-d : len(c) : len(c)]
}

// Len returns the number of stored transitions.
func (b *Buffer) Len() int { return len(b.steps) }

// Reset clears the buffer, retaining capacity. State views handed out by
// earlier Steps calls are invalid afterwards: their storage is reused.
func (b *Buffer) Reset() {
	b.steps = b.steps[:0]
	b.tailValue = 0
	for i := range b.chunks {
		b.chunks[i] = b.chunks[i][:0]
	}
	b.chunk = 0
}

// Steps exposes the stored transitions (read-only use expected).
func (b *Buffer) Steps() []Transition { return b.steps }

// SetTailValue supplies V(s_T), the critic's estimate of the state after
// the final stored transition, for a batch cut mid-episode: agents pass it
// when the last transition is not Done so GAE and Returns can bootstrap
// the open tail instead of assuming a zero continuation. It is ignored
// when the buffer ends on an episode boundary (Done), where the
// per-transition Truncated/Bootstrap fields govern. Reset clears it.
func (b *Buffer) SetTailValue(v float64) { b.tailValue = v }

// Returns computes the discounted return-to-go G_t for every step,
// resetting at episode boundaries (Done flags). Truncated boundaries and an
// open (non-Done) tail bootstrap with the recorded critic estimates; only
// true terminals contribute a zero continuation.
func (b *Buffer) Returns(gamma float64) []float64 {
	n := len(b.steps)
	g := make([]float64, n)
	acc := 0.0
	if n > 0 && !b.steps[n-1].Done {
		acc = b.tailValue
	}
	for i := n - 1; i >= 0; i-- {
		s := b.steps[i]
		if s.Done {
			if s.Truncated {
				acc = s.Bootstrap
			} else {
				acc = 0
			}
		}
		acc = s.Reward + gamma*acc
		g[i] = acc
	}
	return g
}

// GAE computes Generalized Advantage Estimation with the stored value
// estimates, resetting at episode boundaries. It returns (advantages,
// valueTargets) where valueTargets[i] = advantages[i] + Value[i] (the
// λ-return critic target).
//
// The successor value V(s_{t+1}) in δ_t = r_t + γ·V(s_{t+1}) − V(s_t) is:
// zero at a true terminal, the recorded Bootstrap at a truncated episode
// cut, the tail value installed by SetTailValue at an open (non-Done) batch
// tail, and the next stored transition's Value otherwise. The GAE
// accumulator still resets at every Done boundary — truncation ends the
// trajectory for estimation purposes; it just doesn't zero the tail.
func (b *Buffer) GAE(gamma, lambda float64) (adv, targets []float64) {
	return b.GAEInto(gamma, lambda, nil, nil)
}

// GAEInto is GAE writing into caller-provided slices, which are grown as
// needed and returned resliced to the buffer length — the allocation-free
// variant the update pipeline calls with agent-owned scratch. Passing nil
// slices makes it equivalent to GAE.
func (b *Buffer) GAEInto(gamma, lambda float64, advIn, targetsIn []float64) (adv, targets []float64) {
	n := len(b.steps)
	adv = growFloats(advIn, n)
	targets = growFloats(targetsIn, n)
	gae := 0.0
	for i := n - 1; i >= 0; i-- {
		s := b.steps[i]
		var nextValue float64
		switch {
		case s.Truncated:
			nextValue = s.Bootstrap
		case s.Done:
			nextValue = 0
		case i+1 < n:
			nextValue = b.steps[i+1].Value
		default:
			nextValue = b.tailValue
		}
		if s.Done {
			gae = 0
		}
		delta := s.Reward + gamma*nextValue - s.Value
		gae = delta + gamma*lambda*gae
		adv[i] = gae
		targets[i] = gae + s.Value
	}
	return adv, targets
}

// growFloats reslices s to length n, reallocating only when capacity is
// short. Contents are fully overwritten by the callers.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// NormalizeInPlace standardizes v to zero mean and unit variance (no-op for
// fewer than two elements). PPO normalizes advantages per batch for stable
// updates. A near-zero-variance batch is still centered — a constant
// advantage carries no preference between actions, so it must map to zeros,
// not pass through as a large uniform offset — and only the scale step is
// skipped.
func NormalizeInPlace(v []float64) {
	if len(v) < 2 {
		return
	}
	mean := 0.0
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	variance := 0.0
	for _, x := range v {
		variance += (x - mean) * (x - mean)
	}
	variance /= float64(len(v))
	for i := range v {
		v[i] -= mean
	}
	if variance < 1e-12 {
		return
	}
	inv := 1.0 / (math.Sqrt(variance) + 1e-8)
	for i := range v {
		v[i] *= inv
	}
}
