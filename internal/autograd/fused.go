package autograd

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// SurrogateResult bundles the outputs of ClippedSurrogateLoss. ActLogp and
// Ratio alias tape-owned scratch (valid until the next Reset); they feed the
// caller's KL / clip-fraction statistics without extra graph nodes.
type SurrogateResult struct {
	Loss      *Value  // 1x1 node: -objective - entCoef*entropy
	Objective float64 // mean clipped surrogate E[min(r·A, clip(r)·A)]
	Entropy   float64 // mean policy entropy H(π)
	ActLogp   []float64
	Ratio     []float64
}

// ClippedSurrogateLoss fuses the PPO actor-head op chain
//
//	logp    = LogSoftmaxRows(logits)
//	ratio   = Exp(PickCols(logp, actions) - oldLogp)
//	surr    = Minimum(ratio·A, Clamp(ratio, 1∓ε)·A)
//	entropy = -Mean(SumRows(SoftmaxRows(logits) ∘ logp))
//	loss    = -Mean(surr) - entCoef*entropy
//
// into a single destination-passing node: one forward pass over the batch
// and one two-phase backward that writes logits' gradient directly, instead
// of fifteen tape nodes each with their own output, gradient, and backward
// temporaries.
//
// The fusion is an optimization only — both passes transcribe the exact
// floating-point operation order of the composed ops, down to the
// AddInPlace-onto-zeroed-gradient identities and the order in which the
// softmax-entropy and log-softmax branches accumulate into logits.Grad, so
// results are bitwise identical to the composition (pinned by
// TestClippedSurrogateLossMatchesComposedOps). The subtle invariant forcing
// a single fused node rather than separate fused pieces: logp's gradient is
// the SUM of the entropy-product and picked-action contributions, and the
// log-softmax backward of that sum is not bitwise equal to the sum of the
// two backwards taken separately.
//
// actions, oldLogp (Nx1), and advantage (Nx1) are captured without copying;
// callers must not mutate them until after Backward (or the next Reset).

// Per-row mask bits stored in the fused node's masks scratch (values 0..3 are
// exactly representable, so the float round-trip is lossless).
const (
	surrogateFromA  = 1 // Minimum took surr1 (ties included)
	surrogateInside = 2 // Clamp passed the ratio through unclipped
)

func ClippedSurrogateLoss(logits *Value, actions []int, oldLogp, advantage *tensor.Matrix, clip, entCoef float64) SurrogateResult {
	t := logits.tape
	n, a := logits.Data.Rows, logits.Data.Cols
	if len(actions) != n {
		panic(fmt.Sprintf("autograd: ClippedSurrogateLoss got %d actions for %d rows", len(actions), n))
	}
	if oldLogp.Rows != n || oldLogp.Cols != 1 {
		panic(fmt.Sprintf("autograd: ClippedSurrogateLoss oldLogp is %dx%d, want %dx1", oldLogp.Rows, oldLogp.Cols, n))
	}
	if advantage.Rows != n || advantage.Cols != 1 {
		panic(fmt.Sprintf("autograd: ClippedSurrogateLoss advantage is %dx%d, want %dx1", advantage.Rows, advantage.Cols, n))
	}
	lo, hi := 1-clip, 1+clip

	// Forward state the backward pass reads; scratch lives until Reset.
	logp := t.allocScratch(n, a)
	probs := t.allocScratch(n, a)
	ratio := t.allocScratch(n, 1)
	actLogp := t.allocScratch(n, 1)
	masks := t.allocScratch(n, 1) // surrogateFromA | surrogateInside bits

	logits.Data.SoftmaxPairInto(probs, logp)

	minSum := 0.0
	for i := 0; i < n; i++ {
		ai := actions[i]
		if ai < 0 || ai >= a {
			panic(fmt.Sprintf("autograd: ClippedSurrogateLoss action %d out of range [0,%d)", ai, a))
		}
		al := logp.Data[i*a+ai]
		actLogp.Data[i] = al
		r := math.Exp(al - oldLogp.Data[i])
		ratio.Data[i] = r
		surr1 := r * advantage.Data[i]
		var c float64
		mask := 0
		switch {
		case r < lo:
			c = lo
		case r > hi:
			c = hi
		default:
			c = r
			mask |= surrogateInside
		}
		surr2 := c * advantage.Data[i]
		if surr1 <= surr2 {
			mask |= surrogateFromA
			minSum += surr1
		} else {
			minSum += surr2
		}
		masks.Data[i] = float64(mask)
	}
	objective := minSum / float64(n)

	entSum := 0.0
	for i := 0; i < n; i++ {
		lrow := logp.Data[i*a : (i+1)*a]
		prow := probs.Data[i*a : (i+1)*a]
		rowSum := 0.0
		for j := range prow {
			rowSum += prow[j] * lrow[j]
		}
		entSum += rowSum
	}
	entropy := -1 * (entSum / float64(n))
	lossVal := (-1 * objective) - (entCoef * entropy)

	out := t.opNode(1, 1, logits.requiresGrad)
	out.Data.Data[0] = lossVal
	// Closure-free backward: record the forward state in the node's slots and
	// let surrogateBackward (backward.go) run the two-phase gradient.
	out.op = opSurrogate
	out.srcA = logits
	out.aux0, out.aux1, out.aux2, out.aux3, out.aux4 = logp, probs, ratio, masks, advantage
	out.auxIdx = actions
	out.auxS0 = entCoef
	return SurrogateResult{
		Loss:      out,
		Objective: objective,
		Entropy:   entropy,
		ActLogp:   actLogp.Data,
		Ratio:     ratio.Data,
	}
}
