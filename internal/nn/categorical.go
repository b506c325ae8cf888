package nn

import (
	"math"
	"math/rand"
)

// Categorical is a discrete distribution over actions derived from one row
// of logits, with optional action masking (forbidden actions get probability
// zero). It is used at rollout time; the differentiable log-probability for
// training is recomputed inside autograd.ClippedSurrogateLoss, the fused
// op the update records. The zero Categorical is ready for SetLogits.
type Categorical struct {
	probs []float64
	logp  []float64
}

// SetLogits rebuilds the distribution in place from logits, reusing the
// receiver's probability and log-probability storage: one Categorical per
// agent, refreshed every step. mask may be nil; when provided, mask[i]==false
// removes action i. If every action is masked the distribution falls back to
// uniform over all actions (the caller should treat that as a modelling bug,
// but sampling stays well-defined).
func (c *Categorical) SetLogits(logits []float64, mask []bool) {
	n := len(logits)
	if cap(c.probs) < n {
		c.probs = make([]float64, n)
		c.logp = make([]float64, n)
	}
	c.probs = c.probs[:n]
	c.logp = c.logp[:n]
	mx := math.Inf(-1)
	anyAllowed := false
	for i, l := range logits {
		if mask == nil || mask[i] {
			anyAllowed = true
			if l > mx {
				mx = l
			}
		}
	}
	if !anyAllowed {
		p := 1.0 / float64(n)
		for i := range c.probs {
			c.probs[i] = p
			c.logp[i] = math.Log(p)
		}
		return
	}
	sum := 0.0
	for i, l := range logits {
		if mask == nil || mask[i] {
			e := math.Exp(l - mx)
			c.probs[i] = e
			sum += e
		} else {
			c.probs[i] = 0 // clear any value left from a previous SetLogits
		}
	}
	lse := mx + math.Log(sum)
	for i, l := range logits {
		if mask == nil || mask[i] {
			c.probs[i] /= sum
			c.logp[i] = l - lse
		} else {
			c.logp[i] = math.Inf(-1)
		}
	}
}

// Sample draws an action index using rng.
func (c *Categorical) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	acc := 0.0
	last := 0
	for i, p := range c.probs {
		if p == 0 {
			continue
		}
		acc += p
		last = i
		if u < acc {
			return i
		}
	}
	return last // guard against floating-point shortfall
}

// Argmax returns the most probable action (greedy evaluation).
func (c *Categorical) Argmax() int {
	best, bestP := 0, -1.0
	for i, p := range c.probs {
		if p > bestP {
			best, bestP = i, p
		}
	}
	return best
}

// LogProb returns log P(action).
func (c *Categorical) LogProb(action int) float64 { return c.logp[action] }
